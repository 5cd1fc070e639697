type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable buckets : 'a bucket array;  (* length 2^bits *)
  mutable shift : int;  (* 62 - bits *)
}

(* Fibonacci hashing: an odd multiplier close to 2^62 / golden ratio;
   the index is the top [bits] bits of the 62-bit product. *)
let multiplier = 0x278dde6e5fd29e01

let index t key = ((key * multiplier) land max_int) lsr t.shift

let create n =
  let bits = ref 4 in
  while 1 lsl !bits < n && !bits < 30 do
    incr bits
  done;
  { size = 0; buckets = Array.make (1 lsl !bits) Empty; shift = 62 - !bits }

let length t = t.size

let rec mem_in key = function
  | Empty -> false
  | Cons c -> c.key = key || mem_in key c.next

let mem t key = mem_in key t.buckets.(index t key)

let rec find_in key default = function
  | Empty -> default
  | Cons c -> if c.key = key then c.data else find_in key default c.next

let find_or t key ~default = find_in key default t.buckets.(index t key)

let rec find_opt_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let find_opt t key = find_opt_in key t.buckets.(index t key)

let resize t =
  let old = t.buckets in
  let bits = 62 - t.shift + 1 in
  t.buckets <- Array.make (1 lsl bits) Empty;
  t.shift <- 62 - bits;
  let rec move = function
    | Empty -> ()
    | Cons c as cell ->
      let next = c.next in
      let i = index t c.key in
      c.next <- t.buckets.(i);
      t.buckets.(i) <- cell;
      move next
  in
  Array.iter move old

(* true when the key was present and is now updated *)
let rec replace_in key data = function
  | Empty -> false
  | Cons c ->
    if c.key = key then begin
      c.data <- data;
      true
    end
    else replace_in key data c.next

let replace t key data =
  let i = index t key in
  if not (replace_in key data t.buckets.(i)) then begin
    t.buckets.(i) <- Cons { key; data; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then resize t
  end

let rec remove_in t key = function
  | Empty -> Empty
  | Cons c as cell ->
    if c.key = key then begin
      t.size <- t.size - 1;
      c.next
    end
    else begin
      c.next <- remove_in t key c.next;
      cell
    end

let remove t key =
  let i = index t key in
  t.buckets.(i) <- remove_in t key t.buckets.(i)

let rec incr_in key = function
  | Empty -> false
  | Cons c ->
    if c.key = key then begin
      c.data <- c.data + 1;
      true
    end
    else incr_in key c.next

let incr t key = if not (incr_in key t.buckets.(index t key)) then replace t key 1

let fold f t init =
  let rec go acc = function
    | Empty -> acc
    | Cons c -> go (f c.key c.data acc) c.next
  in
  Array.fold_left go init t.buckets
