type t = {
  lo : float;
  hi : float;
  bins : int;
  width : float;
  counts : int array;  (* length bins + 1; last is overflow *)
  mutable underflow : int;  (* observations below lo *)
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  {
    lo;
    hi;
    bins;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make (bins + 1) 0;
    underflow = 0;
    total = 0;
  }

(* Bin index for an in-range or overflowing value; callers route x < lo
   to the underflow bucket first.  Folding underflow into bin 0 (the old
   behaviour) silently inflated the first CDF step. *)
let index t x =
  if x >= t.hi then t.bins
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    if i >= t.bins then t.bins - 1 else if i < 0 then 0 else i
  end

let add t x =
  if x < t.lo then t.underflow <- t.underflow + 1
  else t.counts.(index t x) <- t.counts.(index t x) + 1;
  t.total <- t.total + 1

(* DEAD001 here and below: introspection the histogram tests check. *)
let[@lint.allow "DEAD001"] count t = t.total
let[@lint.allow "DEAD001"] underflow_count t = t.underflow

let[@lint.allow "DEAD001"] bin_count t i =
  if i < 0 || i > t.bins then invalid_arg "Histogram.bin_count: index out of range";
  t.counts.(i)

let bin_edges t i =
  if i < 0 || i > t.bins then invalid_arg "Histogram.bin_edges: index out of range";
  if i = t.bins then (t.hi, infinity)
  else (t.lo +. (float_of_int i *. t.width), t.lo +. (float_of_int (i + 1) *. t.width))

let[@lint.allow "DEAD001"] cdf_at t x =
  if t.total = 0 then 0.0
  else begin
    (* The underflow bucket covers (-inf, lo): entirely at or below [x]
       exactly when [lo <= x]. *)
    let acc = ref (if t.lo <= x then t.underflow else 0) in
    for i = 0 to t.bins do
      let _, hi_edge = bin_edges t i in
      if hi_edge <= x then acc := !acc + t.counts.(i)
    done;
    float_of_int !acc /. float_of_int t.total
  end

let[@lint.allow "DEAD001"] cdf_points t =
  let acc = ref t.underflow in
  let frac n = if t.total = 0 then 0.0 else float_of_int n /. float_of_int t.total in
  let points = ref [ (t.lo, frac t.underflow) ] in
  for i = 0 to t.bins do
    acc := !acc + t.counts.(i);
    let edge = if i = t.bins then t.hi else snd (bin_edges t i) in
    points := (edge, frac !acc) :: !points
  done;
  List.rev !points

let render_ascii ?(width = 72) ?(height = 20) ~series () =
  match series with
  | [] -> ""
  | (_, first) :: _ ->
    let lo = first.lo and hi = first.hi in
    let buf = Buffer.create 4096 in
    let grid = Array.make_matrix height width ' ' in
    let markers = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
    List.iteri
      (fun si (_, h) ->
        let marker = markers.(si mod Array.length markers) in
        for col = 0 to width - 1 do
          let x = lo +. ((hi -. lo) *. float_of_int col /. float_of_int (width - 1)) in
          let y = cdf_at h x in
          let row = height - 1 - int_of_float (y *. float_of_int (height - 1)) in
          let row = Stdlib.max 0 (Stdlib.min (height - 1) row) in
          grid.(row).(col) <- marker
        done)
      series;
    Buffer.add_string buf
      (Printf.sprintf "  CDF (y: 0..100%%, x: %.0f..%.0f us)\n" lo hi);
    Array.iteri
      (fun i row ->
        let label =
          if i = 0 then "100%|"
          else if i = height - 1 then "  0%|"
          else "    |"
        in
        Buffer.add_string buf label;
        Buffer.add_string buf (String.init width (fun j -> row.(j)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("    +" ^ String.make width '-' ^ "\n");
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "      %c %s\n" markers.(si mod Array.length markers) name))
      series;
    Buffer.contents buf
