(* Test-only reference implementations of the type-A curve arithmetic in
   affine coordinates: one F_p inversion per point double or add. They are
   the straightforward formulas the library's inversion-free Jacobian code
   must agree with, kept here so the differential tests have an independent
   oracle. *)

module B = Zkqac_bigint.Bigint
module Fp = Zkqac_group.Fp
module Fp2 = Zkqac_group.Fp2
module Curve = Zkqac_group.Curve

(* Fixed 4-bit-window scalar multiplication over the affine group law. *)
let window_bits = 4

let mul fp k p =
  if B.sign k < 0 then invalid_arg "Affine_oracle.mul: negative scalar";
  let nb = B.num_bits k in
  let table = Array.make (1 lsl window_bits) Curve.Infinity in
  for i = 1 to (1 lsl window_bits) - 1 do
    table.(i) <- Curve.add fp table.(i - 1) p
  done;
  let windows = (nb + window_bits - 1) / window_bits in
  let r = ref Curve.Infinity in
  for w = windows - 1 downto 0 do
    for _ = 1 to window_bits do
      r := Curve.double fp !r
    done;
    let nibble = ref 0 in
    for b = window_bits - 1 downto 0 do
      nibble := (!nibble lsl 1) lor (if B.testbit k ((w * window_bits) + b) then 1 else 0)
    done;
    if !nibble <> 0 then r := Curve.add fp !r table.(!nibble)
  done;
  !r

(* Miller loop computing f_{r,P}(psi(Q)) for affine P, Q, with
   psi(x, y) = (-x, i*y). Each line value is (re, yq) in F_p2, the slope
   computed by an explicit division; vertical lines lie in F_p and are
   skipped (denominator elimination). *)
let miller fp r xp yp xq yq =
  let xq' = Fp.neg fp xq in
  let eval_line lambda xv yv =
    let re = Fp.sub fp (Fp.neg fp yv) (Fp.mul fp lambda (Fp.sub fp xq' xv)) in
    Fp2.make re yq
  in
  let tangent xv yv =
    Fp.div fp
      (Fp.add fp (Fp.mul fp (Fp.of_int fp 3) (Fp.sqr fp xv)) Fp.one)
      (Fp.add fp yv yv)
  in
  let f = ref Fp2.one in
  let v = ref (Curve.Affine (xp, yp)) in
  for i = B.num_bits r - 2 downto 0 do
    f := Fp2.sqr fp !f;
    (match !v with
     | Curve.Infinity -> ()
     | Curve.Affine (xv, yv) ->
       if Fp.is_zero yv then v := Curve.Infinity
       else begin
         f := Fp2.mul fp !f (eval_line (tangent xv yv) xv yv);
         v := Curve.double fp !v
       end);
    if B.testbit r i then begin
      match !v with
      | Curve.Infinity -> ()
      | Curve.Affine (xv, yv) ->
        if B.equal xv xp then begin
          if B.equal yv yp then begin
            f := Fp2.mul fp !f (eval_line (tangent xv yv) xv yv);
            v := Curve.double fp !v
          end
          else v := Curve.Infinity
        end
        else begin
          let lambda = Fp.div fp (Fp.sub fp yp yv) (Fp.sub fp xp xv) in
          f := Fp2.mul fp !f (eval_line lambda xv yv);
          v := Curve.add fp !v (Curve.Affine (xp, yp))
        end
    end
  done;
  !f

(* The reduced Tate pairing: Miller loop, then f^((p-1) * cofactor). *)
let e (params : Zkqac_group.Typea_params.t) a b =
  let fp = params.fp in
  match (a, b) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one
  | Curve.Affine (xp, yp), Curve.Affine (xq, yq) ->
    let f = miller fp params.r xp yp xq yq in
    let f1 = Fp2.mul fp (Fp2.conj fp f) (Fp2.inv fp f) in
    Fp2.pow fp f1 params.cofactor

(* ∏ e(Pi, Qi) as a product of independent pairings. *)
let e_prod params pairs =
  List.fold_left
    (fun acc (a, b) -> Fp2.mul params.Zkqac_group.Typea_params.fp acc (e params a b))
    Fp2.one pairs
