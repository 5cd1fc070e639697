(* Guest programs of the benchmark, generated from the workload seed with
   the kernelc DSL. Every program folds its results into [cks], writes
   the eight bytes of [cks] to the output and exits with its low byte, so
   a run is checked on 64 bits, not 8. *)

open Gb_kernelc.Dsl
module A = Gb_kernelc.Ast

let i64 = A.I64

let emit_cks =
  List.init 8 (fun k -> A.Emit_byte (v "cks" >>: c (8 * k)))

let program arrays body = { A.arrays; body = body @ emit_cks; result = v "cks" }

(* m[i][j] = (i*a + j*b + k) mod md, constants drawn from the seed *)
let init2 rng name n =
  let a = Prng.range rng 1 17 and b = Prng.range rng 1 17 in
  let k = Prng.range rng 0 9 and md = Prng.range rng 11 29 in
  for_ "ii" (c 0) (c n)
    [ for_ "jj" (c 0) (c n)
        [ (name, [ v "ii"; v "jj" ]) <-: ((((v "ii" *: c a) +: (v "jj" *: c b)) +: c k) %: c md) ] ]

let fold2 n elem =
  for_ "ci" (c 0) (c n)
    [ for_ "cj" (c 0) (c n) [ set "cks" ((v "cks" *: c 33) +: elem "ci" "cj") ] ]

(* a seeded number of padding words in front of the matrices, so the
   cache sees a different row alignment per seed *)
let pad rng = array "pad" i64 [ Prng.range rng 1 8 ]

(* Polybench gemm: C = 2*A*B + 3*C *)
let gemm ~seed n =
  let rng = Prng.create seed in
  program
    [ pad rng; array "A" i64 [ n; n ]; array "B" i64 [ n; n ]; array "C" i64 [ n; n ] ]
    [
      init2 rng "A" n; init2 rng "B" n; init2 rng "C" n;
      for_ "i" (c 0) (c n)
        [ for_ "j" (c 0) (c n)
            [
              let_ "acc" (c 0);
              for_ "k" (c 0) (c n)
                [ set "acc" (v "acc" +: (arr "A" [ v "i"; v "k" ] *: arr "B" [ v "k"; v "j" ])) ];
              ("C", [ v "i"; v "j" ]) <-: ((c 2 *: v "acc") +: (c 3 *: arr "C" [ v "i"; v "j" ]));
            ] ];
      let_ "cks" (c 0);
      fold2 n (fun i j -> arr "C" [ v i; v j ]);
    ]

(* Polybench jacobi-2d: [steps] double sweeps of the 5-point stencil *)
let jacobi2d ~seed n steps =
  let rng = Prng.create seed in
  let sweep src dst =
    for_ "i" (c 1) (c (n - 1))
      [ for_ "j" (c 1) (c (n - 1))
          [
            let_ "s" (arr src [ v "i"; v "j" ] +: arr src [ v "i"; v "j" -: c 1 ]);
            set "s" (v "s" +: arr src [ v "i"; v "j" +: c 1 ]);
            set "s" (v "s" +: arr src [ v "i" +: c 1; v "j" ]);
            set "s" (v "s" +: arr src [ v "i" -: c 1; v "j" ]);
            (dst, [ v "i"; v "j" ]) <-: (v "s" /: c 5);
          ] ]
  in
  program
    [ pad rng; array "A" i64 [ n; n ]; array "B" i64 [ n; n ] ]
    [
      init2 rng "A" n; init2 rng "B" n;
      for_ "t" (c 0) (c steps) [ sweep "A" "B"; sweep "B" "A" ];
      let_ "cks" (c 0);
      fold2 n (fun i j -> arr "A" [ v i; v j ]);
    ]

(* The paper's section V-B stress case: matrices as arrays of row
   pointers, so every element load's address comes from a load. The row
   pointers follow a seeded permutation of the data rows. *)
let matmul_ptr ~seed n =
  let rng = Prng.create seed in
  let perm () =
    let p = Array.init n Int64.of_int in
    Prng.shuffle rng p;
    A.Words (Array.to_list p)
  in
  let row m i = arr (m ^ "_rows") [ v i ] in
  let elem m i j = A.Mem (i64, row m i +: (v j <<: c 3)) in
  let mats = [ "A"; "B"; "C" ] in
  let arrays =
    List.concat_map
      (fun m ->
        [ array_init (m ^ "_perm") i64 [ n ] (perm ()); array (m ^ "_rows") i64 [ n ];
          array (m ^ "_data") i64 [ n; n ] ])
      mats
  in
  program arrays
    (List.map
       (fun m ->
         for_ "i" (c 0) (c n)
           [ (m ^ "_rows", [ v "i" ]) <-: A.Addr_of (m ^ "_data", [ arr (m ^ "_perm") [ v "i" ]; c 0 ]) ])
       mats
    @ [
        init2 rng "A_data" n; init2 rng "B_data" n;
        for_ "i" (c 0) (c n)
          [ for_ "j" (c 0) (c n)
              [
                let_ "acc" (c 0);
                for_ "k" (c 0) (c n)
                  [ set "acc" (v "acc" +: (elem "A" "i" "k" *: elem "B" "k" "j")) ];
                A.Mem_store (i64, row "C" "i" +: (v "j" <<: c 3), v "acc");
              ] ];
        let_ "cks" (c 0);
        fold2 n (elem "C");
      ])

(* A translation storm: [loops] distinct small loops, each iterated
   [iters] times (just past the engine's hot threshold), cycling through
   four shapes so every program has the same mix. Three shapes load
   through a loaded index, which the poisoning analysis flags once the
   trace builder hoists the first load. *)
let storm_mask = 511

let storm ~seed ~loops ~iters =
  let rng = Prng.create seed in
  let words () = A.Words (List.init (storm_mask + 1) (fun _ -> Int64.of_int (Prng.int rng 1_000_003))) in
  let m = c storm_mask in
  let acc = v "acc" in
  let loop l =
    let k1 = Prng.range rng 1 97 and k2 = Prng.range rng 0 511 and k3 = Prng.range rng 1 63 in
    let extra =
      List.init (Prng.int rng 3) (fun e ->
          set "acc" ((acc ^: (v "i" <<: c (e + 1))) +: c (Prng.range rng 1 999)))
    in
    let body =
      match l mod 4 with
      | 0 ->
        [ let_ "a" (arr "idx" [ ((v "i" *: c k1) +: c k2) &: m ]);
          set "acc" (acc +: (arr "tab" [ (v "a" +: c k3) &: m ] *: c k3)) ]
      | 1 ->
        [ let_ "a" (arr "tab" [ (v "i" +: c k2) &: m ]);
          if_ ((v "a" &: c 15) <: c 14)
            [ set "acc" (acc ^: arr "idx" [ (v "a" +: c k1) &: m ]) ]
            [ set "acc" (acc +: c k3) ] ]
      | 2 ->
        [ ("out", [ (v "i" +: c k2) &: m ]) <-: acc;
          let_ "a" (arr "out" [ (v "i" *: c k1) &: m ]);
          set "acc" (acc +: arr "idx" [ (v "a" +: c k3) &: m ]) ]
      | _ -> [ set "acc" ((acc *: c (2 * k1 + 1)) +: (v "i" ^: c k2)) ]
    in
    for_ "i" (c 0) (c iters) (body @ extra)
  in
  program
    [ array_init "idx" i64 [ storm_mask + 1 ] (words ());
      array_init "tab" i64 [ storm_mask + 1 ] (words ());
      array "out" i64 [ storm_mask + 1 ] ]
    ((let_ "acc" (c (Prng.int rng 1000)) :: List.init loops loop) @ [ let_ "cks" acc ])
