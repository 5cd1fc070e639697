type t = { ids : int array; mutable size : int; key : int array }

let create capacity key = { ids = Array.make (max capacity 1) 0; size = 0; key }

let size h = h.size

let top h = h.ids.(0)

let push h u =
  let k = h.key.(u) in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && k < h.key.(h.ids.((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    h.ids.(!i) <- h.ids.(parent);
    i := parent
  done;
  h.ids.(!i) <- u

let pop h =
  let top = h.ids.(0) in
  h.size <- h.size - 1;
  let last = h.ids.(h.size) in
  let k = h.key.(last) in
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= h.size then sifting := false
    else begin
      let c =
        if l + 1 < h.size && h.key.(h.ids.(l + 1)) < h.key.(h.ids.(l)) then l + 1
        else l
      in
      if h.key.(h.ids.(c)) < k then begin
        h.ids.(!i) <- h.ids.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if h.size > 0 then h.ids.(!i) <- last;
  top
