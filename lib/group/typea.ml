(* The type-A symmetric pairing: Tate pairing on the supersingular curve
   E : y^2 = x^3 + x over F_p, embedding degree 2, with the distortion map
   psi(x, y) = (-x, i*y) providing symmetry.

   Denominator elimination applies throughout: psi maps x-coordinates into
   F_p, so every vertical-line value lies in F_p* and is annihilated by the
   (p - 1) factor of the final exponentiation (p^2 - 1)/r = (p-1) * cofactor.
   The Miller loop therefore only accumulates the tangent/chord lines. *)

module B = Zkqac_bigint.Bigint

let create (params : Typea_params.t) : (module Pairing_intf.PAIRING) =
  let { Typea_params.r; p; cofactor; fp; g = gen } = params in
  (module struct
    let name = Printf.sprintf "typea(r=%d bits, p=%d bits)" (B.num_bits r) (B.num_bits p)
    let order = r

    module G = struct
      type t = Curve.point

      let one = Curve.Infinity
      let g = gen
      let mul = Curve.add fp
      let inv = Curve.neg fp
      let pow pt k = Curve.mul fp (B.erem k r) pt
      let equal = Curve.equal
      let is_one = Curve.is_infinity
      let to_bytes = Curve.to_bytes fp

      let of_bytes s =
        match Curve.of_bytes fp s with
        | Some pt when Curve.is_infinity pt || Curve.is_infinity (Curve.mul fp r pt) ->
          Some pt
        | Some _ | None -> None

      let hash_to msg =
        let rec go ctr =
          let pt = Curve.hash_to_point fp ~domain:"typea-g" (msg ^ "#" ^ string_of_int ctr) in
          let pt = Curve.mul fp cofactor pt in
          if Curve.is_infinity pt then go (ctr + 1) else pt
        in
        go 0
    end

    module Gt = struct
      type t = Fp2.t

      let one = Fp2.one
      let mul = Fp2.mul fp
      let inv = Fp2.inv fp
      let pow a k = Fp2.pow fp a (B.erem k r)
      let equal = Fp2.equal
      let is_one = Fp2.is_one
      let to_bytes = Fp2.to_bytes fp

      (* Membership in the order-r subgroup of F_p2* must be checked on
         decode, mirroring [G.of_bytes]'s r*P = infinity check: pairing
         outputs satisfy x^r = 1, and untrusted inputs (the CP-ABE
         [c_tilde] component decodes through here) must not smuggle in
         arbitrary in-range field elements. *)
      let of_bytes s =
        match Fp2.of_bytes fp s with
        | Some x when Fp2.is_one (Fp2.pow fp x r) -> Some x
        | Some _ | None -> None
    end

    (* Multi-pairing ∏ e(Pi, Qi), one Miller loop for all terms: because
       squaring distributes over the product, a single accumulator [f] is
       squared once per bit of r while every pair contributes its own
       tangent/chord line values, and one final exponentiation covers all
       terms.

       Each V stays Jacobian, and each line value comes from the
       intermediates of the double or add that moves V. With
       psi(Q) = (-xq, yq*i) the affine line through V with slope lambda is
       (-yv + lambda (xq + xv)) + yq*i; it is multiplied here by a factor in
       F_p* that clears the denominators (Z(2V)*Z(V)^2 for a tangent, Z(V+P)
       for a chord), which the (p - 1) part of the final exponentiation
       removes, like the vertical lines. *)
    let e_prod pairs =
      let terms =
        List.filter_map
          (fun pair ->
            match pair with
            | Curve.Infinity, _ | _, Curve.Infinity -> None
            | (Curve.Affine (xp, _) as pt), Curve.Affine (xq, yq) ->
              let pj = Curve.to_jac pt in
              Some (pj, Fp.add fp xq xp, xq, yq, ref pj))
          pairs
      in
      if terms = [] then Fp2.one
      else begin
        let f = ref Fp2.one in
        let line re im = f := Fp2.mul fp !f (Fp2.make re im) in
        (* Tangent at V: M (X + xq Z^2) - 2 Y^2 + yq Z(2V) Z^2 i. When
           Z(2V) = 0, V was infinity or of order 2 (a vertical tangent). *)
        let double_step xq yq v =
          let v2, m, yy, zz = Curve.jdouble fp !v in
          if not (B.is_zero v2.z) then
            line
              (Fp.sub fp (Fp.mul fp m (Fp.add fp !v.x (Fp.mul fp xq zz))) (Fp.add fp yy yy))
              (Fp.mul fp yq (Fp.mul fp v2.z zz));
          v := v2
        in
        for i = B.num_bits r - 2 downto 0 do
          f := Fp2.sqr fp !f;
          List.iter
            (fun (pj, xqp, xq, yq, v) ->
              double_step xq yq v;
              if B.testbit r i && not (B.is_zero !v.z) then begin
                let sum, h, rr = Curve.jadd fp !v pj in
                if not (Fp.is_zero h) then begin
                  (* Chord through P: R (xq + xp) - yp Z + yq Z i, Z = Z(V+P). *)
                  line (Fp.sub fp (Fp.mul fp rr xqp) (Fp.mul fp pj.y sum.z)) (Fp.mul fp yq sum.z);
                  v := sum
                end
                else if Fp.is_zero rr then double_step xq yq v (* V = P *)
                else v := sum (* V = -P: vertical, V + P = infinity *)
              end)
            terms
        done;
        (* Final exponentiation: f^(p-1) via Frobenius (conjugation), then
           raise to the cofactor (p+1)/r. *)
        let f1 = Fp2.mul fp (Fp2.conj fp !f) (Fp2.inv fp !f) in
        Fp2.pow fp f1 cofactor
      end

    let e a b = e_prod [ (a, b) ]

    let rand_scalar drbg = Zkqac_hashing.Drbg.nonzero_bigint drbg r

    let rand_g drbg =
      let k = rand_scalar drbg in
      G.pow gen k
  end)
