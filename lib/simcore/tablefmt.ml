type align = Left | Right
type row = Cells of string list | Rule

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : row list;  (* reversed *)
}

let create ~title ~columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Tablefmt.add_row: wrong number of cells";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun acc row ->
        match row with
        | Rule -> acc
        | Cells cells -> List.map2 (fun w c -> Stdlib.max w (String.length c)) acc cells)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 1024 in
  let horizontal () =
    Buffer.add_char buf '+';
    List.iter (fun w -> Buffer.add_string buf (String.make (w + 2) '-'); Buffer.add_char buf '+') widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells aligns cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        let a = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad a w c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  horizontal ();
  emit_cells (List.map (fun _ -> Left) t.headers) t.headers;
  horizontal ();
  List.iter
    (fun row -> match row with Rule -> horizontal () | Cells cells -> emit_cells t.aligns cells)
    rows;
  horizontal ();
  Buffer.contents buf

let cell_f ?(decimals = 2) f =
  if Float.is_nan f then "-" else Printf.sprintf "%.*f" decimals f

let cell_i i = string_of_int i

let cell_pct ?(decimals = 1) f =
  if Float.is_nan f then "-" else Printf.sprintf "%.*f%%" decimals (f *. 100.0)
