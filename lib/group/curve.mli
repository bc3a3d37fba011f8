(** The supersingular curve E : y² = x³ + x over F_p (p ≡ 3 mod 4).

    With p ≡ 3 (mod 4), E is supersingular with #E(F_p) = p + 1 and embedding
    degree 2 — the same curve family as the PBC library's "type a" pairing
    parameters used by the paper's implementation. *)

type point = Infinity | Affine of Zkqac_bigint.Bigint.t * Zkqac_bigint.Bigint.t

val equal : point -> point -> bool
val is_infinity : point -> bool
val neg : Fp.ctx -> point -> point
val is_on_curve : Fp.ctx -> point -> bool
val add : Fp.ctx -> point -> point -> point
val double : Fp.ctx -> point -> point

val mul : Fp.ctx -> Zkqac_bigint.Bigint.t -> point -> point
(** Scalar multiplication by a 4-bit fixed window; scalar must be >= 0.
    Affine in and out, Jacobian inside: the only inversion is the final
    conversion back to affine. *)

(** {2 Jacobian coordinates}

    [(X : Y : Z)] stands for the affine point [(X/Z², Y/Z³)]; [Z = 0] is the
    point at infinity. Doubling and addition need no inversion. Exposed for
    the Miller loop, which forms its line values from the same
    intermediates. *)

type jac = { x : Zkqac_bigint.Bigint.t; y : Zkqac_bigint.Bigint.t; z : Zkqac_bigint.Bigint.t }

val to_jac : point -> jac

val jdouble :
  Fp.ctx -> jac -> jac * Zkqac_bigint.Bigint.t * Zkqac_bigint.Bigint.t * Zkqac_bigint.Bigint.t
(** [jdouble c v] is [(2V, M, Y², Z²)] with [M = 3X² + Z⁴]. When [2V] is
    finite the tangent at [V] has slope [M / Z(2V)]. *)

val jadd :
  Fp.ctx -> jac -> jac -> jac * Zkqac_bigint.Bigint.t * Zkqac_bigint.Bigint.t
(** [jadd c v w] is [(V + W, H, R)] with [H = X_W·Z_V² − X_V·Z_W²] and
    [R = Y_W·Z_V³ − Y_V·Z_W³]. For finite [V], [W] with [H ≠ 0] the chord
    has slope [R / Z(V + W)]; [H = 0] means [W = ±V]. [H] and [R] are zero
    when either input is infinity. A [W] with [Z = 1] takes the cheaper
    mixed addition. *)

val hash_to_point : Fp.ctx -> domain:string -> string -> point
(** Try-and-increment: hash to an x-coordinate, bump until x³+x is square.
    The result is on the full curve; callers multiply by the cofactor to land
    in the prime-order subgroup. *)

val to_bytes : Fp.ctx -> point -> string
(** Compressed encoding: one tag byte (0 = infinity, 2/3 = sign of y) plus
    the x-coordinate, fixed width. *)

val of_bytes : Fp.ctx -> string -> point option
val encoded_size : Fp.ctx -> int
