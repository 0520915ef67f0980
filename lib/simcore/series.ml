type t = {
  mutable times : Time_ns.t array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let add t time v =
  let last = t.size - 1 in
  if t.size > 0 && Time_ns.(time < t.times.(last)) then
    invalid_arg "Series.add: timestamps must be non-decreasing";
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ntimes = Array.make ncap Time_ns.zero in
    let nvalues = Array.make ncap 0.0 in
    Array.blit t.times 0 ntimes 0 t.size;
    Array.blit t.values 0 nvalues 0 t.size;
    t.times <- ntimes;
    t.values <- nvalues
  end;
  t.times.(t.size) <- time;
  t.values.(t.size) <- v;
  t.size <- t.size + 1

let windowed t ~window ~reduce =
  if Time_ns.(window <= 0L) then invalid_arg "Series.windowed: window must be positive";
  if t.size = 0 then []
  else begin
    let origin = t.times.(0) in
    let result = ref [] in
    let bucket = ref [] in
    let bucket_start = ref origin in
    let flush () =
      match !bucket with
      | [] -> ()
      | vs -> result := (!bucket_start, reduce (List.rev vs)) :: !result
    in
    for i = 0 to t.size - 1 do
      let wstart =
        let offset = Time_ns.(t.times.(i) - origin) in
        let idx = Int64.div offset window in
        Time_ns.(origin + Int64.mul idx window)
      in
      if Time_ns.(wstart > !bucket_start) then begin
        flush ();
        bucket := [];
        bucket_start := wstart
      end;
      bucket := t.values.(i) :: !bucket
    done;
    flush ();
    List.rev !result
  end

let median_of_list vs =
  let a = Array.of_list vs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let windowed_medians t ~window = windowed t ~window ~reduce:median_of_list
