module B = Zkqac_bigint.Bigint

type point = Infinity | Affine of B.t * B.t

let equal a b =
  match (a, b) with
  | Infinity, Infinity -> true
  | Affine (x1, y1), Affine (x2, y2) -> B.equal x1 x2 && B.equal y1 y2
  | Infinity, Affine _ | Affine _, Infinity -> false

let is_infinity = function Infinity -> true | Affine _ -> false

let neg c = function
  | Infinity -> Infinity
  | Affine (x, y) -> Affine (x, Fp.neg c y)

let is_on_curve c = function
  | Infinity -> true
  | Affine (x, y) ->
    let lhs = Fp.sqr c y in
    let rhs = Fp.add c (Fp.mul c (Fp.sqr c x) x) x in
    Fp.equal lhs rhs

let double c p =
  match p with
  | Infinity -> Infinity
  | Affine (x, y) ->
    if Fp.is_zero y then Infinity
    else begin
      (* lambda = (3x^2 + 1) / 2y  for y^2 = x^3 + x. *)
      let three_x2 = Fp.mul c (Fp.of_int c 3) (Fp.sqr c x) in
      let num = Fp.add c three_x2 Fp.one in
      let lambda = Fp.div c num (Fp.add c y y) in
      let x3 = Fp.sub c (Fp.sqr c lambda) (Fp.add c x x) in
      let y3 = Fp.sub c (Fp.mul c lambda (Fp.sub c x x3)) y in
      Affine (x3, y3)
    end

let add c p q =
  match (p, q) with
  | Infinity, r | r, Infinity -> r
  | Affine (x1, y1), Affine (x2, y2) ->
    if B.equal x1 x2 then begin
      if B.equal y1 y2 then double c p else Infinity
    end
    else begin
      let lambda = Fp.div c (Fp.sub c y2 y1) (Fp.sub c x2 x1) in
      let x3 = Fp.sub c (Fp.sub c (Fp.sqr c lambda) x1) x2 in
      let y3 = Fp.sub c (Fp.mul c lambda (Fp.sub c x1 x3)) y1 in
      Affine (x3, y3)
    end

(* Jacobian coordinates: (X : Y : Z) stands for (X/Z^2, Y/Z^3) and Z = 0 for
   the point at infinity. Doubling and addition need no inversion; only the
   conversion back to affine pays one. *)
type jac = { x : B.t; y : B.t; z : B.t }

let jinfinity = { x = B.one; y = B.one; z = B.zero }
let to_jac = function Infinity -> jinfinity | Affine (x, y) -> { x; y; z = B.one }

let of_jac c v =
  if B.is_zero v.z then Infinity
  else begin
    let zi = Fp.inv c v.z in
    let zi2 = Fp.sqr c zi in
    Affine (Fp.mul c v.x zi2, Fp.mul c v.y (Fp.mul c zi2 zi))
  end

(* S = 4XY^2, M = 3X^2 + Z^4 (a = 1), X' = M^2 - 2S, Y' = M(S - X') - 8Y^4,
   Z' = 2YZ. A point with Y = 0 has order 2, and Z' = 0 makes its double
   infinity without a branch; so does Z = 0. *)
let jdouble c v =
  let xx = Fp.sqr c v.x and yy = Fp.sqr c v.y and zz = Fp.sqr c v.z in
  let m = Fp.add c (Fp.add c (Fp.add c xx xx) xx) (Fp.sqr c zz) in
  let s = Fp.mul c v.x yy in
  let s = Fp.add c s s in
  let s = Fp.add c s s in
  let x3 = Fp.sub c (Fp.sqr c m) (Fp.add c s s) in
  let y4 = Fp.sqr c yy in
  let y4 = Fp.add c y4 y4 in
  let y4 = Fp.add c y4 y4 in
  let y3 = Fp.sub c (Fp.mul c m (Fp.sub c s x3)) (Fp.add c y4 y4) in
  ({ x = x3; y = y3; z = Fp.mul c (Fp.add c v.y v.y) v.z }, m, yy, zz)

(* U1 = X1 Z2^2, U2 = X2 Z1^2, S1 = Y1 Z2^3, S2 = Y2 Z1^3, H = U2 - U1,
   R = S2 - S1; X3 = R^2 - H^3 - 2 U1 H^2, Y3 = R (U1 H^2 - X3) - S1 H^3,
   Z3 = Z1 Z2 H. With Z2 = 1 (an affine w) U1 and S1 cost nothing. *)
let jadd c v w =
  if B.is_zero v.z then (w, B.zero, B.zero)
  else if B.is_zero w.z then (v, B.zero, B.zero)
  else begin
    let vzz = Fp.sqr c v.z in
    let u2 = Fp.mul c w.x vzz and s2 = Fp.mul c w.y (Fp.mul c vzz v.z) in
    let u1, s1, zz =
      if B.is_one w.z then (v.x, v.y, v.z)
      else begin
        let wzz = Fp.sqr c w.z in
        (Fp.mul c v.x wzz, Fp.mul c v.y (Fp.mul c wzz w.z), Fp.mul c v.z w.z)
      end
    in
    let h = Fp.sub c u2 u1 and r = Fp.sub c s2 s1 in
    let sum =
      if Fp.is_zero h then begin
        if Fp.is_zero r then
          let d, _, _, _ = jdouble c v in
          d
        else jinfinity
      end
      else begin
        let hh = Fp.sqr c h in
        let hhh = Fp.mul c hh h and u1hh = Fp.mul c u1 hh in
        let x3 = Fp.sub c (Fp.sub c (Fp.sqr c r) hhh) (Fp.add c u1hh u1hh) in
        let y3 = Fp.sub c (Fp.mul c r (Fp.sub c u1hh x3)) (Fp.mul c s1 hhh) in
        { x = x3; y = y3; z = Fp.mul c zz h }
      end
    in
    (sum, h, r)
  end

(* Fixed 4-bit window over Jacobian coordinates: one add per nibble instead
   of per set bit, and a single inversion at the end. The table 1P..15P is
   built with mixed adds of the affine P and stays Jacobian: at the scalar
   sizes used here, full Jacobian adds in the main loop cost less than the
   inversion plus per-entry scaling that an affine table would need. *)
let window_bits = 4

let mul c k p =
  if B.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  let double v =
    let d, _, _, _ = jdouble c v in
    d
  in
  let add v w =
    let s, _, _ = jadd c v w in
    s
  in
  let pj = to_jac p in
  let nb = B.num_bits k in
  let r = ref jinfinity in
  if nb <= window_bits * 2 then
    (* Tiny scalars: plain double-and-add beats table setup. *)
    for i = nb - 1 downto 0 do
      r := double !r;
      if B.testbit k i then r := add !r pj
    done
  else begin
    let table = Array.make (1 lsl window_bits) jinfinity in
    for i = 1 to (1 lsl window_bits) - 1 do
      table.(i) <- add table.(i - 1) pj
    done;
    let nibble w =
      let n = ref 0 in
      for b = window_bits - 1 downto 0 do
        n := (!n lsl 1) lor (if B.testbit k ((w * window_bits) + b) then 1 else 0)
      done;
      !n
    in
    let windows = (nb + window_bits - 1) / window_bits in
    r := table.(nibble (windows - 1));
    for w = windows - 2 downto 0 do
      for _ = 1 to window_bits do
        r := double !r
      done;
      let n = nibble w in
      if n <> 0 then r := add !r table.(n)
    done
  end;
  of_jac c !r

let hash_to_point c ~domain msg =
  let p = Fp.modulus c in
  let rec try_ctr ctr =
    let x =
      Zkqac_hashing.Hash_to_field.to_zp ~domain:(domain ^ ":h2p") ~p
        (msg ^ ":" ^ string_of_int ctr)
    in
    let rhs = Fp.add c (Fp.mul c (Fp.sqr c x) x) x in
    match Fp.sqrt c rhs with
    | Some y ->
      (* Deterministic sign choice keyed on the counter stream. *)
      let y = if B.testbit x 0 then y else Fp.neg c y in
      Affine (x, y)
    | None -> try_ctr (ctr + 1)
  in
  try_ctr 0

let encoded_size c = 1 + ((B.num_bits (Fp.modulus c) + 7) / 8)

let to_bytes c pt =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  match pt with
  | Infinity -> String.make (w + 1) '\000'
  | Affine (x, y) ->
    let tag = if B.testbit y 0 then '\003' else '\002' in
    String.make 1 tag ^ B.to_bytes_be_pad w x

let of_bytes c s =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  if String.length s <> w + 1 then None
  else begin
    match s.[0] with
    | '\000' ->
      (* Canonical encodings only: infinity is the all-zero string, not any
         string with a zero tag. *)
      if String.for_all (Char.equal '\000') s then Some Infinity else None
    | ('\002' | '\003') as tag ->
      let x = B.of_bytes_be (String.sub s 1 w) in
      if B.compare x (Fp.modulus c) >= 0 then None
      else begin
        let rhs = Fp.add c (Fp.mul c (Fp.sqr c x) x) x in
        match Fp.sqrt c rhs with
        | None -> None
        | Some y ->
          let want_odd = tag = '\003' in
          let y = if B.testbit y 0 = want_odd then y else Fp.neg c y in
          Some (Affine (x, y))
      end
    | _ -> None
  end
