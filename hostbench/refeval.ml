(* Reference evaluator for kernelc programs: the benchmark's source of
   expected exit codes and output bytes. It walks the AST directly, so it
   shares no code with the compiler, the interpreter or the DBT.

   Arrays get the evaluator's own layout in a byte buffer (8-aligned,
   declaration order). Programs whose results depend on absolute
   addresses (the Spectre PoCs) are out of scope; every program the
   benchmark checks folds only values. Semantics follow the rv64im code
   the compiler emits: 64-bit wrapping arithmetic, RISC-V division rules,
   logical right shift, I8 loads zero-extended, I32 loads sign-extended. *)

open Gb_kernelc.Ast

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let base0 = 0x1000

let align8 x = (x + 7) land lnot 7

type env = {
  arrays : (string, int * array_decl) Hashtbl.t;
  mem : Bytes.t;
  mutable scope : (string * int) list;
  mutable next_slot : int;
  mutable max_slot : int;
}

let layout arrays =
  let tbl = Hashtbl.create 16 in
  let top =
    List.fold_left
      (fun off d ->
        if Hashtbl.mem tbl d.a_name then unsupported "array %s redeclared" d.a_name;
        let off = align8 off in
        Hashtbl.replace tbl d.a_name (off, d);
        off + (List.fold_left ( * ) 1 d.a_dims * ty_size d.a_ty))
      base0 arrays
  in
  let mem = Bytes.make (align8 top) '\000' in
  Hashtbl.iter
    (fun _ (off, d) ->
      match d.a_init with
      | Zero -> ()
      | Bytes s -> Bytes.blit_string s 0 mem off (String.length s)
      | Words ws -> List.iteri (fun i w -> Bytes.set_int64_le mem (off + (8 * i)) w) ws)
    tbl;
  (tbl, mem)

let check env addr size =
  if addr < base0 || addr + size > Bytes.length env.mem then
    unsupported "access out of the evaluator's arrays at %d" addr

let load env ty addr =
  check env addr (ty_size ty);
  match ty with
  | I8 -> Int64.of_int (Bytes.get_uint8 env.mem addr)
  | I32 -> Int64.of_int32 (Bytes.get_int32_le env.mem addr)
  | I64 -> Bytes.get_int64_le env.mem addr

let store env ty addr v =
  check env addr (ty_size ty);
  match ty with
  | I8 -> Bytes.set_uint8 env.mem addr (Int64.to_int v land 0xff)
  | I32 -> Bytes.set_int32_le env.mem addr (Int64.to_int32 v)
  | I64 -> Bytes.set_int64_le env.mem addr v

let div a b =
  if b = 0L then -1L else if b = -1L then Int64.neg a else Int64.div a b

let rem a b = if b = 0L then a else if b = -1L then 0L else Int64.rem a b

let binop = function
  | Add -> Int64.add
  | Sub -> Int64.sub
  | Mul -> Int64.mul
  | Div -> div
  | Rem -> rem
  | And -> Int64.logand
  | Or -> Int64.logor
  | Xor -> Int64.logxor
  | Shl -> fun a b -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Lt -> fun a b -> if Int64.compare a b < 0 then 1L else 0L
  | Le -> fun a b -> if Int64.compare a b <= 0 then 1L else 0L
  | Eq -> fun a b -> if Int64.equal a b then 1L else 0L
  | Ne -> fun a b -> if Int64.equal a b then 0L else 1L

let slot env v =
  match List.assoc_opt v env.scope with
  | Some s -> s
  | None -> unsupported "undefined scalar %s" v

let declare env v =
  if List.mem_assoc v env.scope then unsupported "scalar %s redeclared" v;
  let s = env.next_slot in
  env.next_slot <- s + 1;
  env.max_slot <- max env.max_slot env.next_slot;
  env.scope <- (v, s) :: env.scope;
  s

(* Statements and expressions are compiled to closures over a slot file
   (a byte buffer, so stores do not allocate). The slot file is created
   after compilation, once its size is known, hence the [regs] ref. *)
let rec expr env regs e : unit -> int64 =
  match e with
  | Const c -> fun () -> c
  | Var v ->
    let o = 8 * slot env v in
    fun () -> Bytes.get_int64_le !regs o
  | Arr (name, idxs) ->
    let ty = (snd (Hashtbl.find env.arrays name)).a_ty in
    let a = addr env regs name idxs in
    fun () -> load env ty (Int64.to_int (a ()))
  | Addr_of (name, idxs) -> addr env regs name idxs
  | Mem (ty, e) ->
    let a = expr env regs e in
    fun () -> load env ty (Int64.to_int (a ()))
  | Bin (op, a, b) ->
    let f = binop op and a = expr env regs a and b = expr env regs b in
    fun () ->
      let x = a () in
      f x (b ())
  | Cycle -> unsupported "rdcycle has no reference value"

and addr env regs name idxs : unit -> int64 =
  let base, d =
    match Hashtbl.find_opt env.arrays name with
    | Some x -> x
    | None -> unsupported "unknown array %s" name
  in
  let size = Int64.of_int (ty_size d.a_ty) in
  let base = Int64.of_int base in
  match idxs with
  | [] -> fun () -> base
  | first :: rest ->
    if List.length idxs <> List.length d.a_dims then
      unsupported "array %s: wrong index count" name;
    let first = expr env regs first in
    let rest =
      List.map2 (fun dim i -> (Int64.of_int dim, expr env regs i)) (List.tl d.a_dims) rest
    in
    fun () ->
      let off =
        List.fold_left (fun acc (dim, i) -> Int64.add (Int64.mul acc dim) (i ())) (first ()) rest
      in
      Int64.add base (Int64.mul off size)

let block env f =
  let scope = env.scope and next = env.next_slot in
  let r = f () in
  env.scope <- scope;
  env.next_slot <- next;
  r

let set regs o v = Bytes.set_int64_le !regs o v

let rec stmt env regs out s : unit -> unit =
  match s with
  | Let (v, e) ->
    let e = expr env regs e in
    let o = 8 * declare env v in
    fun () -> set regs o (e ())
  | Set (v, e) ->
    let o = 8 * slot env v and e = expr env regs e in
    fun () -> set regs o (e ())
  | Arr_store (name, idxs, value) ->
    let ty = (snd (Hashtbl.find env.arrays name)).a_ty in
    let value = expr env regs value and a = addr env regs name idxs in
    fun () ->
      let x = value () in
      store env ty (Int64.to_int (a ())) x
  | Mem_store (ty, a, value) ->
    let value = expr env regs value and a = expr env regs a in
    fun () ->
      let x = value () in
      store env ty (Int64.to_int (a ())) x
  | For (v, lo, hi, body) ->
    block env (fun () ->
        let o = 8 * (match List.assoc_opt v env.scope with Some s -> s | None -> declare env v) in
        let lo = expr env regs lo and hi = expr env regs hi in
        let body = stmts env regs out body in
        fun () ->
          set regs o (lo ());
          let h = hi () in
          while Int64.compare (Bytes.get_int64_le !regs o) h < 0 do
            body ();
            set regs o (Int64.succ (Bytes.get_int64_le !regs o))
          done)
  | If (c, t, e) ->
    let c = expr env regs c in
    let t = stmts env regs out t and e = stmts env regs out e in
    fun () -> if c () <> 0L then t () else e ()
  | Flush _ | Fence_stmt -> fun () -> ()
  | Emit_byte e ->
    let e = expr env regs e in
    fun () -> Buffer.add_char out (Char.chr (Int64.to_int (e ()) land 0xff))

and stmts env regs out ss =
  block env (fun () ->
      let fs = Array.of_list (List.map (stmt env regs out) ss) in
      fun () -> Array.iter (fun f -> f ()) fs)

(* [run p] is [(exit_code, output)] of [p] as the guest would compute it. *)
let run (p : program) =
  let arrays, mem = layout p.arrays in
  let env = { arrays; mem; scope = []; next_slot = 0; max_slot = 0 } in
  let regs = ref Bytes.empty in
  let out = Buffer.create 16 in
  let body = Array.of_list (List.map (stmt env regs out) p.body) in
  let result = expr env regs p.result in
  regs := Bytes.make (8 * max 1 env.max_slot) '\000';
  Array.iter (fun f -> f ()) body;
  let code = Int64.to_int (result ()) land 0xff in
  (code, Buffer.contents out)
