let set_bit occ i = occ.(i lsr 5) <- occ.(i lsr 5) lor (1 lsl (i land 31))
let clear_bit occ i = occ.(i lsr 5) <- occ.(i lsr 5) land lnot (1 lsl (i land 31))

let lsb w =
  let x = ref (w land (-w)) in
  let n = ref 0 in
  if !x land 0xFFFF = 0 then begin
    n := 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

let ffs_in_range occ ~from ~upto =
  if from > upto then -1
  else begin
    let res = ref (-1) in
    let iw = ref (from lsr 5) in
    let last_w = upto lsr 5 in
    let first = occ.(!iw) land ((-1) lsl (from land 31)) in
    if first <> 0 then res := (!iw lsl 5) + lsb first
    else begin
      incr iw;
      while !res < 0 && !iw <= last_w do
        let w = occ.(!iw) in
        if w <> 0 then res := (!iw lsl 5) + lsb w;
        incr iw
      done
    end;
    if !res >= 0 && !res <= upto then !res else -1
  end
