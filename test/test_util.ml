(* Tests for the utility library: deterministic RNG, statistics, table
   rendering. *)

let rng_deterministic () =
  let a = Gb_util.Rng.create 42L in
  let b = Gb_util.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Gb_util.Rng.next a) (Gb_util.Rng.next b)
  done

let rng_zero_seed () =
  let r = Gb_util.Rng.create 0L in
  Alcotest.(check bool) "zero seed produces values" true
    (not (Int64.equal (Gb_util.Rng.next r) 0L))

let rng_bounds_prop =
  QCheck.Test.make ~count:500 ~name:"Rng.int stays in bounds"
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Gb_util.Rng.create seed in
      let v = Gb_util.Rng.int r bound in
      v >= 0 && v < bound)

let rng_choose () =
  let r = Gb_util.Rng.create 7L in
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "choose picks a member" true
      (Array.mem (Gb_util.Rng.choose r arr) arr)
  done

let stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Gb_util.Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Gb_util.Stats.mean []);
  Alcotest.(check (float 1e-9)) "geomean" 2. (Gb_util.Stats.geomean [ 1.; 4. ]);
  Alcotest.(check (float 1e-9)) "geomean empty" 1. (Gb_util.Stats.geomean []);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Gb_util.Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Gb_util.Stats.median [ 4.; 1.; 2.; 3. ]);
  let lo, hi = Gb_util.Stats.min_max [ 3.; 1.; 2. ] in
  Alcotest.(check (float 1e-9)) "min" 1. lo;
  Alcotest.(check (float 1e-9)) "max" 3. hi

let percentile_prop =
  QCheck.Test.make ~count:300 ~name:"percentile within range"
    QCheck.(pair (float_range 0. 1.)
              (list_of_size (Gen.int_range 1 50) (float_range 0. 100.)))
    (fun (p, xs) ->
      let v = Gb_util.Stats.percentile p xs in
      let lo, hi = Gb_util.Stats.min_max xs in
      v >= lo && v <= hi)

let percentile_nearest_rank () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  let p q = Gb_util.Stats.percentile q xs in
  Alcotest.(check (float 1e-9)) "p0 is the minimum" 10. (p 0.);
  Alcotest.(check (float 1e-9)) "p1 is the maximum" 40. (p 1.);
  (* nearest-rank: ceil(0.5 * 4) = 2nd smallest *)
  Alcotest.(check (float 1e-9)) "median rank" 20. (p 0.5);
  Alcotest.(check (float 1e-9)) "p0.51 rounds up" 30. (p 0.51);
  Alcotest.(check (float 1e-9)) "unsorted input" 20.
    (Gb_util.Stats.percentile 0.5 [ 40.; 10.; 30.; 20. ])

let percentile_clamps () =
  let xs = [ 1.; 2.; 3. ] in
  let p q = Gb_util.Stats.percentile q xs in
  Alcotest.(check (float 1e-9)) "below range clamps to min" 1. (p (-0.5));
  Alcotest.(check (float 1e-9)) "above range clamps to max" 3. (p 1.5);
  Alcotest.(check (float 1e-9)) "far below" 1. (p neg_infinity);
  Alcotest.(check (float 1e-9)) "far above" 3. (p infinity);
  Alcotest.(check (float 1e-9)) "nan treated as p0" 1. (p Float.nan);
  Alcotest.(check (float 1e-9)) "empty list" 0.
    (Gb_util.Stats.percentile 0.5 [])

let table_render () =
  let s =
    Gb_util.Table.render ~header:[ "name"; "value" ]
      ~rows:[ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + separator + 2 rows + trailing" 5
    (List.length lines);
  let widths =
    List.filter_map
      (fun l -> if l = "" then None else Some (String.length l))
      lines
  in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let table_pads_short_rows () =
  let s = Gb_util.Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] in
  Alcotest.(check bool) "renders without exception" true (String.length s > 0)

let json_encoding () =
  let module J = Gb_util.Json in
  Alcotest.(check string) "scalar" "42" (J.to_string (J.Int 42));
  Alcotest.(check string) "null" "null" (J.to_string J.Null);
  Alcotest.(check string) "bool" "true" (J.to_string (J.Bool true));
  Alcotest.(check string) "float" "1.5" (J.to_string (J.Float 1.5));
  Alcotest.(check string) "integral float" "2.0" (J.to_string (J.Float 2.));
  Alcotest.(check string) "string escaping" {|"a\"b\\c\nd"|}
    (J.to_string (J.String "a\"b\\c\nd"));
  Alcotest.(check string) "control chars" "\"\\u0001\""
    (J.to_string (J.String "\001"));
  Alcotest.(check string) "empty containers" {|[{},[]]|}
    (J.to_string (J.List [ J.Obj []; J.List [] ]));
  Alcotest.(check string) "object" {|{"a":1,"b":[2,3]}|}
    (J.to_string (J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Int 2; J.Int 3 ]) ]))

let json_pretty_roundtrip () =
  let module J = Gb_util.Json in
  let v = J.Obj [ ("xs", J.List [ J.Int 1; J.String "two" ]); ("ok", J.Bool false) ] in
  let pretty = J.to_string_pretty v in
  (* pretty form contains the same tokens, plus layout *)
  Alcotest.(check bool) "has newlines" true (String.contains pretty '\n');
  let strip s =
    String.to_seq s
    |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
    |> String.of_seq
  in
  Alcotest.(check string) "same content" (J.to_string v) (strip pretty)

let json_parsing () =
  let module J = Gb_util.Json in
  let ok s = match J.of_string s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e in
  Alcotest.(check bool) "int" true (ok "42" = J.Int 42);
  Alcotest.(check bool) "negative int" true (ok "-7" = J.Int (-7));
  Alcotest.(check bool) "float" true (ok "1.5" = J.Float 1.5);
  Alcotest.(check bool) "exponent is a float" true (ok "1e2" = J.Float 100.);
  Alcotest.(check bool) "null" true (ok "null" = J.Null);
  Alcotest.(check bool) "bools" true (ok "[true,false]" = J.List [ J.Bool true; J.Bool false ]);
  Alcotest.(check bool) "whitespace" true (ok " { \"a\" : 1 } " = J.Obj [ ("a", J.Int 1) ]);
  Alcotest.(check bool) "nested" true
    (ok {|{"a":[1,{"b":null}],"c":"x"}|}
    = J.Obj
        [
          ("a", J.List [ J.Int 1; J.Obj [ ("b", J.Null) ] ]);
          ("c", J.String "x");
        ]);
  Alcotest.(check bool) "string escapes" true
    (ok {|"a\"b\\c\ndA"|} = J.String "a\"b\\c\ndA");
  let err s = match J.of_string s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "empty input" true (err "");
  Alcotest.(check bool) "trailing garbage" true (err "1 x");
  Alcotest.(check bool) "unterminated string" true (err {|"abc|});
  Alcotest.(check bool) "unterminated array" true (err "[1,2");
  Alcotest.(check bool) "bad literal" true (err "nul")

(* Regression: \uXXXX escapes above the BMP arrive as UTF-16 surrogate
   pairs and must decode to one 4-byte UTF-8 scalar (pre-fix, each half
   was emitted as a bogus 3-byte sequence); a lone surrogate is not a
   scalar value and must be rejected, not silently encoded. *)
let json_surrogate_pairs () =
  let module J = Gb_util.Json in
  let ok s =
    match J.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  (* U+1F600 (grinning face) = f0 9f 98 80 *)
  Alcotest.(check bool) "surrogate pair decodes to one scalar" true
    (ok {|"\uD83D\uDE00"|} = J.String "\xf0\x9f\x98\x80");
  (* U+10000, the first non-BMP scalar *)
  Alcotest.(check bool) "lowest astral scalar" true
    (ok {|"\uD800\uDC00"|} = J.String "\xf0\x90\x80\x80");
  (* U+10FFFF, the last one *)
  Alcotest.(check bool) "highest scalar" true
    (ok {|"\uDBFF\uDFFF"|} = J.String "\xf4\x8f\xbf\xbf");
  (* BMP escapes still work around a pair *)
  Alcotest.(check bool) "pair amid BMP escapes" true
    (ok {|"a\u00E9\uD83D\uDE00z"|}
    = J.String "a\xc3\xa9\xf0\x9f\x98\x80z");
  (* a non-BMP scalar round-trips through the encoder's escaping *)
  let v = J.String "\xf0\x9f\x98\x80" in
  Alcotest.(check bool) "encoder round-trip" true
    (J.of_string (J.to_string v) = Ok v);
  let err s = match J.of_string s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "lone high surrogate" true (err {|"\uD83D"|});
  Alcotest.(check bool) "high surrogate then text" true (err {|"\uD83Dab"|});
  Alcotest.(check bool) "high surrogate then BMP escape" true
    (err {|"\uD83DA"|});
  Alcotest.(check bool) "lone low surrogate" true (err {|"\uDE00"|});
  Alcotest.(check bool) "two high surrogates" true (err {|"\uD83D\uD83D"|})

let json_parse_roundtrip_prop =
  (* any value we can encode must parse back to itself *)
  let module J = Gb_util.Json in
  let leaf =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return J.Null;
        QCheck.Gen.map (fun b -> J.Bool b) QCheck.Gen.bool;
        QCheck.Gen.map (fun i -> J.Int i) QCheck.Gen.small_signed_int;
        QCheck.Gen.map
          (fun f -> J.Float (float_of_int f /. 8.))
          QCheck.Gen.small_signed_int;
        QCheck.Gen.map (fun s -> J.String s) QCheck.Gen.string_printable;
      ]
  in
  let value =
    QCheck.Gen.sized (fun n ->
        QCheck.Gen.fix
          (fun self n ->
            if n = 0 then leaf
            else
              QCheck.Gen.oneof
                [
                  leaf;
                  QCheck.Gen.map
                    (fun xs -> J.List xs)
                    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4)
                       (self (n / 2)));
                  QCheck.Gen.map
                    (fun xs -> J.Obj xs)
                    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4)
                       (QCheck.Gen.pair QCheck.Gen.string_printable
                          (self (n / 2))));
                ])
          (min n 8))
  in
  QCheck.Test.make ~count:300 ~name:"Json.of_string inverts to_string"
    (QCheck.make value)
    (fun v -> J.of_string (J.to_string v) = Ok v)

(* Pc_tbl against Stdlib's Hashtbl as the model: random replace, remove,
   incr and lookups over pc-like keys (multiples of 4, plus a few
   negative and large ones), through several resizes. *)
let pc_tbl_matches_hashtbl =
  QCheck.Test.make ~count:300 ~name:"Pc_tbl = Hashtbl"
    QCheck.(
      list_of_size Gen.(int_range 1 400)
        (pair (int_bound 3) (oneof [ map (fun k -> 4 * k) (int_bound 300); int ])))
    (fun ops ->
      let t = Gb_util.Pc_tbl.create 1 in
      let m = Hashtbl.create 16 in
      List.for_all
        (fun (op, k) ->
          (match op with
          | 0 ->
            Gb_util.Pc_tbl.replace t k (k + 1);
            Hashtbl.replace m k (k + 1)
          | 1 ->
            Gb_util.Pc_tbl.remove t k;
            Hashtbl.remove m k
          | _ ->
            Gb_util.Pc_tbl.incr t k;
            Hashtbl.replace m k (1 + Option.value ~default:0 (Hashtbl.find_opt m k)));
          Gb_util.Pc_tbl.length t = Hashtbl.length m
          && Gb_util.Pc_tbl.find_opt t k = Hashtbl.find_opt m k
          && Gb_util.Pc_tbl.mem t k = Hashtbl.mem m k
          && Gb_util.Pc_tbl.find_or t (k + 4) ~default:(-1)
             = Option.value ~default:(-1) (Hashtbl.find_opt m (k + 4)))
        ops
      && List.sort compare (Gb_util.Pc_tbl.fold (fun k v acc -> (k, v) :: acc) t [])
         = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m []))

(* a miss neither raises nor allocates *)
let pc_tbl_miss_is_free () =
  let t = Gb_util.Pc_tbl.create 64 in
  for k = 0 to 99 do
    Gb_util.Pc_tbl.replace t (4 * k) k
  done;
  let before = Gc.minor_words () in
  let hits = ref 0 in
  for k = 100 to 10_099 do
    hits := !hits + Gb_util.Pc_tbl.find_or t (4 * k) ~default:0;
    if Gb_util.Pc_tbl.mem t (4 * k) then incr hits;
    match Gb_util.Pc_tbl.find_opt t (4 * k) with Some _ -> incr hits | None -> ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all missed" 0 !hits;
  Alcotest.(check bool) (Printf.sprintf "allocated %.0f words" words) true (words < 100.)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [
      ( "pc_tbl",
        [
          qt pc_tbl_matches_hashtbl;
          Alcotest.test_case "miss is free" `Quick pc_tbl_miss_is_free;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "zero seed" `Quick rng_zero_seed;
          Alcotest.test_case "choose" `Quick rng_choose;
          qt rng_bounds_prop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick stats_basics;
          Alcotest.test_case "percentile nearest-rank" `Quick
            percentile_nearest_rank;
          Alcotest.test_case "percentile clamps" `Quick percentile_clamps;
          qt percentile_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "pads short rows" `Quick table_pads_short_rows;
        ] );
      ( "json",
        [
          Alcotest.test_case "encoding" `Quick json_encoding;
          Alcotest.test_case "pretty round-trip" `Quick json_pretty_roundtrip;
          Alcotest.test_case "parsing" `Quick json_parsing;
          Alcotest.test_case "surrogate pairs" `Quick json_surrogate_pairs;
          qt json_parse_roundtrip_prop;
        ] );
    ]
