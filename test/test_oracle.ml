(* Differential tests of the inversion-free type-A arithmetic against the
   affine oracle in [Affine_oracle], plus the low-order points whose
   Jacobian doubling takes the Y = 0 branch. *)

module B = Zkqac_bigint.Bigint
module Group = Zkqac_group
module Curve = Group.Curve
module Fp2 = Group.Fp2
module Drbg = Zkqac_hashing.Drbg
module Primes = Zkqac_numth.Primes

let params = Lazy.force Group.Typea_params.tiny
let fp = params.fp
let r = params.r
let qprop ~count name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* A point of the full curve (order dividing p + 1 = 4 c0 r), so most
   draws lie outside the order-r subgroup. *)
let curve_point seed = Curve.hash_to_point fp ~domain:"oracle" (string_of_int seed)
let subgroup_point seed = Affine_oracle.mul fp params.cofactor (curve_point seed)

let scalar kind drbg =
  match kind with
  | 0 -> B.zero
  | 1 -> B.one
  | 2 -> B.sub r B.one
  | 3 -> r
  | 4 -> B.add r B.one
  | 5 -> B.add r (Drbg.bigint drbg (B.shift_left B.one 70))
  | _ -> Drbg.bigint drbg (B.shift_left B.one (1 + (Char.code (Drbg.generate drbg 1).[0] mod 100)))

let test_mul_vs_oracle =
  qprop ~count:60 "Curve.mul = affine oracle"
    QCheck2.Gen.(triple (int_range 0 6) (int_range 0 1_000_000) bool)
    (fun (kind, seed, in_subgroup) ->
      let drbg = Drbg.create ~seed:("mul" ^ string_of_int seed) in
      let k = scalar kind drbg in
      let pt = if in_subgroup then subgroup_point seed else curve_point seed in
      Curve.equal (Curve.mul fp k pt) (Affine_oracle.mul fp k pt))

module P = (val Group.Backend.instantiate Group.Backend.Typea_tiny)

let to_g pt =
  match P.G.of_bytes (Curve.to_bytes fp pt) with
  | Some x -> x
  | None -> failwith "subgroup point rejected"

(* 1-8 pairs, each slot a fresh subgroup point, infinity, the previous
   first argument again, or its negation. *)
let gen_pairs =
  QCheck2.Gen.(list_size (int_range 1 8) (pair (int_range 0 3) (int_range 0 3)))

let build_pairs seed slots =
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      subgroup_point ((seed * 16) + !n)
  in
  let prev = ref (fresh ()) in
  let pick = function
    | 0 -> Curve.Infinity
    | 1 -> !prev
    | 2 -> Curve.neg fp !prev
    | _ -> fresh ()
  in
  List.map
    (fun (a, b) ->
      let p = pick a in
      let q = pick b in
      if not (Curve.is_infinity p) then prev := p;
      (p, q))
    slots

let test_e_prod_vs_oracle =
  qprop ~count:25 "e_prod = product of affine oracle pairings (bytes)"
    QCheck2.Gen.(pair (int_range 0 1_000_000) gen_pairs)
    (fun (seed, slots) ->
      let pairs = build_pairs seed slots in
      let got = P.Gt.to_bytes (P.e_prod (List.map (fun (p, q) -> (to_g p, to_g q)) pairs)) in
      String.equal got (Fp2.to_bytes fp (Affine_oracle.e_prod params pairs)))

let test_e_is_e_prod =
  qprop ~count:10 "e a b = e_prod [(a, b)] = affine oracle"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let a = subgroup_point (2 * seed) and b = subgroup_point ((2 * seed) + 1) in
      let e = P.Gt.to_bytes (P.e (to_g a) (to_g b)) in
      String.equal e (P.Gt.to_bytes (P.e_prod [ (to_g a, to_g b) ]))
      && String.equal e (Fp2.to_bytes fp (Affine_oracle.e params a b)))

(* Over p = 3 (mod 4) the root's closing check is the residuosity test. *)
let test_sqrt_vs_legendre =
  let p = params.p in
  qprop ~count:300 "sqrt_mod is Some exactly for residues (typea-tiny p)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let a = Drbg.bigint (Drbg.create ~seed:("sqrt" ^ string_of_int seed)) p in
      let a = if seed mod 50 = 0 then B.zero else a in
      match Primes.sqrt_mod a p with
      | Some s -> B.equal (B.erem (B.mul s s) p) a && (B.is_zero a || Primes.legendre a p = 1)
      | None -> Primes.legendre a p = -1)

(* E(F_p) has exactly one point of order 2, (0, 0), so its 2-part is
   cyclic of order >= 4 and [(p+1)/4] Q has order 4 for half of all Q. *)
let order4_point () =
  let quarter = B.shift_right (B.add params.p B.one) 2 in
  let rec go seed =
    let t = Curve.mul fp quarter (curve_point seed) in
    if Curve.is_infinity (Curve.double fp t) then go (seed + 1) else t
  in
  go 0

let test_low_order () =
  let two_torsion = Curve.Affine (B.zero, B.zero) in
  let four_torsion = order4_point () in
  Alcotest.(check bool) "order 4" true
    (Curve.equal (Curve.double fp four_torsion) two_torsion
    && Curve.is_on_curve fp four_torsion);
  List.iter
    (fun (name, pt) ->
      let s = Curve.to_bytes fp pt in
      Alcotest.(check bool) (name ^ " round-trips") true
        (match Curve.of_bytes fp s with Some pt' -> Curve.equal pt pt' | None -> false);
      Alcotest.(check bool) (name ^ " rejected by G.of_bytes") true (P.G.of_bytes s = None);
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: mul by %s" name (B.to_string k))
            true
            (Curve.equal (Curve.mul fp k pt) (Affine_oracle.mul fp k pt)))
        [ B.one; B.two; B.of_int 3; B.of_int 4; B.of_int 5; r; B.add r B.one ])
    [ ("(0,0)", two_torsion); ("order-4 point", four_torsion) ];
  Alcotest.(check bool) "[r](0,0) = (0,0)" true (Curve.equal (Curve.mul fp r two_torsion) two_torsion)

let suite =
  [ ( "oracle",
      [ test_mul_vs_oracle;
        test_e_prod_vs_oracle;
        test_e_is_e_prod;
        test_sqrt_vs_legendre;
        Alcotest.test_case "low-order points" `Quick test_low_order ] ) ]
