(* Served-query benchmark.

   [zkbench run --workload W --seed N --seconds S --trace 0|1 --out DIR]
   sets up workload W's ADS, serves it from a separate server process on
   loopback, drives it with a closed-loop verifying client for S seconds, and
   prints one JSON report of raw measurements as the last line of stdout.
   run.py turns that report into named metrics.

   [zkbench serve BACKEND ADS] is the server process: Server.default_config
   on ephemeral ports, "ready PORT METRICS_PORT" on stdout once it serves,
   graceful drain and exit 0 on SIGTERM. [zkbench run] spawns it with
   fork+exec and itself starts no domain, so the SP and the user never
   share a runtime.

   With --trace 1 the run also replays the timed phase's queries through
   its own span-recording client (connect, send, wait, decode, verify), then
   replays them in-process through Ap2g.range_vo (relax timed through the
   public ?pmap hook), then measures the unit-cost ladder. Spans are kept in
   memory and written once, as a Chrome trace, at the end. All spans are
   recorded here, around calls into public functions; nothing inside the
   library is traced for the benchmark. *)

module Prng = Zkqac_rng.Prng
module Drbg = Zkqac_hashing.Drbg
module Sha256 = Zkqac_hashing.Sha256
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Record = Zkqac_core.Record
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Workload = Zkqac_tpch.Workload
module Backend = Zkqac_group.Backend
module Telemetry = Zkqac_telemetry.Telemetry
module Metrics = Zkqac_telemetry.Metrics
module Json = Zkqac_telemetry.Json
module Clock = Zkqac_parallel.Monotonic_clock
module Server = Zkqac_server.Server
module Client = Zkqac_server.Client
module Proto = Zkqac_server.Proto
module Sockio = Zkqac_server.Sockio
module Wire = Zkqac_util.Wire

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type user_kind = Fifth_of_records | Every_role

(* The property a workload exists for; a run that loses it fails. *)
type character =
  | Relaxes  (** every query needs at least one ABS.Relax *)
  | Only_results  (** every VO entry is an accessible result, no relax *)
  | One_cell  (** every query is a single cell *)

type workload = {
  name : string;
  backend : Backend.kind;
  depth : int;  (** keyspace side 2^depth per dimension, 3 dimensions *)
  rows : int;  (** TPC-H Lineitem rows before the per-key merge *)
  user : user_kind;
  box_side : int;  (** query boxes are box_side^3 cells *)
  warm : int;
      (** queries served before the timed window; the server's peak RSS is
          read after them, so it does not depend on how fast the window
          went *)
  character : character;
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md;
   mock-service runs by hand and is not in BENCHMARK.json, because its 2 ms
   p50 followed the host's CPU steal. The typea ADS has every one of its 64
   cells filled, so "the user holds every role" means every cell of a query
   is an accessible result. *)
let workloads =
  [ { name = "typea-relax"; backend = Backend.Typea_tiny; depth = 2;
      rows = 1000; user = Fifth_of_records; box_side = 2; warm = 2;
      character = Relaxes };
    { name = "typea-results"; backend = Backend.Typea_tiny; depth = 2;
      rows = 1000; user = Every_role; box_side = 2; warm = 2;
      character = Only_results };
    { name = "mock-service"; backend = Backend.Mock; depth = 4; rows = 4000;
      user = Fifth_of_records; box_side = 1; warm = 1000;
      character = One_cell } ]

(* Set-up is repeated and run.py reports the median, so work moved into
   set-up shows against a steady figure. *)
let setup_reps = 3

(* ------------------------------------------------------------------ *)
(* Clock and spans                                                      *)

let now = Clock.now_ns
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let ms_since t0 = ms_between t0 (now ())

type span = {
  sid : int;
  name : string;
  parent : int;  (** 0 = root *)
  req : int64;  (** the request id the span's query travelled under *)
  tid : int;
  start : int64;
  mutable stop : int64;
  mutable attrs : (string * Json.t) list;
}

let spans : span list ref = ref []
let span_seq = Atomic.make 1
let span_lock = Mutex.create ()

(* Spans are recorded here only, around calls into public functions. The
   timed phase records none (it calls Client.query whole), so its figures
   carry no tracing cost. *)
let span ?(parent = 0) ?(req = 0L) name f =
  let s =
    { sid = Atomic.fetch_and_add span_seq 1; name; parent; req;
      tid = Thread.id (Thread.self ()); start = now (); stop = 0L; attrs = [] }
  in
  Fun.protect
    ~finally:(fun () ->
      s.stop <- now ();
      Mutex.lock span_lock;
      spans := s :: !spans;
      Mutex.unlock span_lock)
    (fun () -> f s)

let write_trace path =
  let all = List.rev !spans in
  let origin =
    List.fold_left (fun acc s -> if s.start < acc then s.start else acc)
      Int64.max_int all
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let event s =
    Json.Obj
      [ ("name", Json.Str s.name); ("ph", Json.Str "X"); ("pid", Json.Int 1);
        ("tid", Json.Int s.tid); ("ts", Json.Float (us s.start));
        ("dur", Json.Float (us s.stop -. us s.start));
        ( "args",
          Json.Obj
            ([ ("id", Json.Int s.sid); ("parent", Json.Int s.parent);
               ("req_id", Json.Str (Proto.req_id_hex s.req)) ]
            @ s.attrs) ) ]
  in
  Json.to_file path
    (Json.Obj [ ("traceEvents", Json.Arr (List.map event all));
                ("displayTimeUnit", Json.Str "ms") ])

(* Deterministic, non-zero correlation ids: the same seed and query index
   always travel under the same id, so the spans of one query join the
   server's audit and /slowlog entries. *)
let req_id ~seed ~phase i =
  Int64.(
    logor
      (shift_left (of_int (seed land 0xffffff)) 32)
      (logor (shift_left (of_int phase) 28) (of_int ((i + 1) land 0xfffffff))))

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)

let serve kind ads =
  let module P = (val Backend.instantiate kind) in
  let module S = Server.Make (P) in
  let cfg = { Server.default_config with port = 0; metrics_port = Some 0 } in
  match S.start cfg ~ads with
  | Error e ->
    prerr_endline ("zkbench serve: " ^ e);
    exit 2
  | Ok t ->
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> S.begin_drain t));
    let mport = match S.metrics_port t with Some p -> p | None -> 0 in
    Printf.printf "ready %d %d\n%!" (S.port t) mport;
    S.wait t;
    exit 0

type child = { pid : int; port : int; mport : int; ic : in_channel }

let live_children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children)

let forget pid = live_children := List.filter (( <> ) pid) !live_children

let spawn_server kind ads =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; Backend.to_string kind; ads |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live_children := pid :: !live_children;
  let ic = Unix.in_channel_of_descr r in
  match Unix.select [ r ] [] [] 120.0 with
  | [], _, _ -> failwith "server did not report ready within 120 s"
  | _ -> (
    match Scanf.sscanf (input_line ic) "ready %d %d" (fun p m -> (p, m)) with
    | port, mport -> { pid; port; mport; ic }
    | exception (End_of_file | Scanf.Scan_failure _ | Failure _) ->
      failwith "server exited before it was ready")

(* SIGTERM starts the graceful drain; the exit status must be 0. *)
let stop_server c =
  Unix.kill c.pid Sys.sigterm;
  let _, status = Unix.waitpid [] c.pid in
  forget c.pid;
  close_in_noerr c.ic;
  match status with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM in the server's status"
  in
  find ()

(* The vCPU the run is pinned to (run.py pins it and passes --cpu), or
   None for the whole machine. *)
let pinned_cpu : int option ref = ref None

(* CPU time the hypervisor gave to other guests, and all CPU time, in
   ticks since boot: steal and total of /proc/stat's line for the pinned
   vCPU (or its first line, for all of them). A run whose steal share is
   high measured a machine it did not have to itself. *)
let cpu_ticks () =
  let label =
    match !pinned_cpu with Some c -> Printf.sprintf "cpu%d" c | None -> "cpu"
  in
  let ic = open_in "/proc/stat" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
    | l :: fields when l = label ->
      let v = List.map int_of_string fields in
      (List.nth v 7, List.fold_left ( + ) 0 v)
    | _ -> find ()
    | exception End_of_file -> (0, 0)
  in
  find ()

(* Milliseconds for a fixed piece of work written here, independent of the
   program: a chain of four-limb modular products on base-2^26 limbs, each
   product and each remainder (Knuth's algorithm D) in fresh arrays. That
   is the shape of the typea-tiny field arithmetic (four limbs) the pairing
   code spends its time in: multiplies, divides, short-lived allocation. It
   is a frozen copy, so it does not get faster when the program does; it
   reads slower when the host gives this VM a slower CPU, whatever the
   program does. The timed phase runs it after every query, set-up twice in
   every repetition, and run.py scales those times to a reference CPU with
   the mean of its readings. A vCPU of a shared VM flips between two speeds
   (this probe reads 4 or 6 ms) many times a second, so one reading is
   either, and only the mean of many tells the speed a query saw. The mean
   of [runs]. *)
module Probe = struct
  let bits = 26
  let mask = (1 lsl bits) - 1

  let mul a b =
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- t land mask;
        carry := t lsr bits
      done;
      r.(i + lb) <- !carry
    done;
    r

  (* u mod v; v's top limb has its high bit set, so no normalising shift. *)
  let rem u v =
    let n = Array.length v and m = Array.length u - Array.length v in
    let un = Array.make (m + n + 1) 0 in
    Array.blit u 0 un 0 (m + n);
    for j = m downto 0 do
      let num = (un.(j + n) lsl bits) lor un.(j + n - 1) in
      let qhat = ref (num / v.(n - 1)) and rhat = ref (num mod v.(n - 1)) in
      while
        !rhat <= mask
        && (!qhat > mask || !qhat * v.(n - 2) > (!rhat lsl bits) lor un.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + v.(n - 1)
      done;
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr bits;
        let t = un.(i + j) - (p land mask) - !borrow in
        un.(i + j) <- t land mask;
        borrow := if t < 0 then 1 else 0
      done;
      let t = un.(j + n) - !carry - !borrow in
      if t < 0 then begin
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = un.(i + j) + v.(i) + !c in
          un.(i + j) <- s land mask;
          c := s lsr bits
        done;
        un.(j + n) <- 0
      end
      else un.(j + n) <- t
    done;
    Array.sub un 0 n

  (* A four-limb odd modulus with the top bit of its top limb set. *)
  let modulus = [| 0x3a5f1c7; 0x1d2b4e9; 0x2c6d8a3; 0x3f1e5b |]
  let modulus = Array.map (fun l -> l land mask) modulus
  let () = modulus.(3) <- modulus.(3) lor (1 lsl (bits - 1))

  let once () =
    let t0 = now () in
    let x = ref [| 0x1234567; 0x2345678; 0x3456789; 0x456789 |] in
    let y = [| 0x2f0e1d3; 0x1c2b3a4; 0x0a1b2c5; 0x3b4c5d |] in
    for _ = 1 to 20_000 do
      x := rem (mul !x y) modulus
    done;
    ignore (Sys.opaque_identity !x);
    ms_since t0
end

let cpu_probe_ms ?(runs = 3) () =
  List.fold_left ( +. ) 0.0 (List.init runs (fun _ -> Probe.once ())) /. float_of_int runs

let steal_pct (s0, t0) (s1, t1) =
  if t1 > t0 then 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* GET /metrics from the server process: the Prometheus text it already
   exposes. Returns the summed value of each named family. *)
let scrape_metrics ~port families =
  let fd = Sockio.connect ~host:"127.0.0.1" ~port ~timeout:5.0 in
  Fun.protect ~finally:(fun () -> Sockio.close_noerr fd) @@ fun () ->
  let deadline = Sockio.deadline_after 5.0 in
  Sockio.write_all fd ~deadline "GET /metrics HTTP/1.0\r\n\r\n";
  let buf = Buffer.create 8192 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  List.map
    (fun fam ->
      let total =
        List.fold_left
          (fun acc line ->
            let n = String.length fam in
            if String.length line > n
               && String.sub line 0 n = fam
               && (line.[n] = ' ' || line.[n] = '{')
            then
              match String.rindex_opt line ' ' with
              | Some i ->
                acc
                +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
              | None -> acc
            else acc)
          0.0 lines
      in
      (fam, total))
    families

(* ------------------------------------------------------------------ *)
(* Inputs derived from the seed                                         *)

type inputs = {
  universe : Universe.t;
  policies : Expr.t array;
  space : Keyspace.t;
  records : Record.t list;
  user : Attr.Set.t;
  probe_user : Attr.Set.t;  (** a 20% user, for the relax unit cost *)
  queries : Box.t array;
  expected : (int list * string) list array;  (** the oracle, per query *)
  blocked : int array;  (** cells of each query the user cannot read *)
}

let cells box f =
  let rec go d acc =
    if d = Array.length box.Box.lo then f (Array.of_list (List.rev acc))
    else
      for x = box.Box.lo.(d) to box.Box.hi.(d) - 1 do
        go (d + 1) (x :: acc)
      done
  in
  go 0 []

(* The paper's default user: roles that can read 20% of the records. The
   user always holds [user_roles] roles, so a seed changes which roles and
   records, not the size of the super policy that every relax and APS
   verification pays for. Among the role sets of that size, the one whose
   share of records is closest to 20% wins; the seed breaks ties. *)
let user_roles = 3

let fifth_of_records rng ~roles ~records =
  let rec choose k = function
    | _ when k = 0 -> [ [] ]
    | [] -> []
    | r :: rest ->
      List.map (fun s -> r :: s) (choose (k - 1) rest) @ choose k rest
  in
  let sets = Array.of_list (List.map Attr.set_of_list (choose user_roles roles)) in
  Prng.shuffle rng sets;
  let n = float_of_int (List.length records) in
  let miss u =
    let readable =
      List.fold_left
        (fun acc r -> if Expr.eval r.Record.policy u then acc + 1 else acc)
        0 records
    in
    Float.abs ((float_of_int readable /. n) -. 0.2)
  in
  fst
    (Array.fold_left
       (fun (best, err) u ->
         let e = miss u in
         if e < err then (u, e) else (best, err))
       (sets.(0), miss sets.(0))
       sets)

(* Every policy of the pool on as many records as every other (within
   one), in a seeded order. Workload.lineitem_records draws each record's
   policy on its own, so over 64 cells how much a 20% user may read, and
   with it the relax work per query, changed with the seed. *)
let deal_policies rng ~policies records =
  let records = List.sort (fun a b -> compare a.Record.key b.Record.key) records in
  let dealt = Array.init (List.length records) (fun i -> policies.(i mod Array.length policies)) in
  Prng.shuffle rng dealt;
  List.mapi
    (fun i r -> Record.make ~key:r.Record.key ~value:r.Record.value ~policy:dealt.(i))
    records

(* The policy pool is part of the workload, not of the seed: one pool's
   signatures can cost half as much again as another's, and a seed should
   vary the data, the user and the queries, not the price of every
   signature. *)
let make_inputs (w : workload) ~seed =
  let roles, policies =
    Workload.gen_policies (Prng.create 0) Workload.default_policies
  in
  let rng = Prng.create seed in
  let universe = Universe.create roles in
  let space = Keyspace.create ~dims:3 ~depth:w.depth in
  let records =
    deal_policies rng ~policies (Workload.lineitem_records rng ~space ~rows:w.rows ~policies)
  in
  let probe_user = fifth_of_records (Prng.create (seed + 7919)) ~roles ~records in
  let user =
    match w.user with
    | Fifth_of_records -> probe_user
    | Every_role -> Attr.set_of_list roles
  in
  (* The query sequence is every box position, in a seeded order,
     replayed in a cycle. run.py computes the gated figures over whole
     cycles, so every run, on any seed and at any speed, weighs the same
     boxes: over the first n positions of a seeded order, the mean VO of
     one seed was a third above another's. *)
  let pos = Keyspace.side space - w.box_side + 1 in
  let queries =
    Array.init (pos * pos * pos) (fun i ->
        let alpha = [| i / (pos * pos); i / pos mod pos; i mod pos |] in
        Box.of_range ~alpha ~beta:(Array.map (fun a -> a + w.box_side - 1) alpha))
  in
  Prng.shuffle (Prng.create (seed + 104729)) queries;
  let by_key = Hashtbl.create 4096 in
  List.iter (fun r -> Hashtbl.replace by_key (Array.to_list r.Record.key) r)
    records;
  let oracle q =
    let hits = ref [] and blocked = ref 0 in
    cells q (fun key ->
        match Hashtbl.find_opt by_key (Array.to_list key) with
        | Some r when Expr.eval r.Record.policy user ->
          hits := (Array.to_list key, r.Record.value) :: !hits
        | Some _ | None -> incr blocked);
    (List.sort compare !hits, !blocked)
  in
  let answers = Array.map oracle queries in
  { universe; policies; space; records; user; probe_user; queries;
    expected = Array.map fst answers; blocked = Array.map snd answers }

(* Each workload's defining property, checked on its inputs before any
   query is sent. *)
let input_violations (w : workload) inp =
  let v = ref [] in
  let cells_total = Keyspace.num_leaves inp.space in
  if w.character = Only_results && List.length inp.records <> cells_total then
    v := Printf.sprintf "%d of %d cells hold a record" (List.length inp.records)
           cells_total :: !v;
  Array.iteri
    (fun i q ->
      if Box.volume q <> w.box_side * w.box_side * w.box_side then
        v := Printf.sprintf "query %d has %d cells" i (Box.volume q) :: !v;
      if w.character = Relaxes && inp.blocked.(i) = 0 then
        v := Printf.sprintf "query %d needs no relax" i :: !v)
    inp.queries;
  !v

(* ------------------------------------------------------------------ *)
(* One workload on one backend                                          *)

type sample = {
  s_q : int;
  s_lat_ms : float;  (** send to verified answer, retries included *)
  s_attempt_ms : float;
  s_verify_ms : float;
  s_vo_bytes : int;
  s_attempts : int;
  s_ok : bool;  (** verified and equal to the oracle's answer *)
  s_timing : Proto.timing option;
  s_error : string option;
  s_probe_ms : float;  (** {!cpu_probe_ms} right after the query; 0 if not run *)
  s_steal_pct : float;  (** CPU the host took while the query ran; 0 if not read *)
}

let verdict (w : workload) ~ok ~char_ok =
  if not ok then Some "answer differs from the oracle"
  else if not char_ok then Some ("workload character broken: " ^ w.name)
  else None

let failed_sample i lat e =
  { s_q = i; s_lat_ms = lat; s_attempt_ms = 0.0; s_verify_ms = 0.0;
    s_vo_bytes = 0; s_attempts = 0; s_ok = false; s_timing = None;
    s_error = Some e; s_probe_ms = 0.0; s_steal_pct = 0.0 }

let sample_json s =
  let t = Option.value s.s_timing ~default:Proto.zero_timing in
  Json.Arr
    [ Json.Int s.s_q; Json.Float s.s_lat_ms; Json.Float s.s_attempt_ms;
      Json.Float s.s_verify_ms; Json.Int s.s_vo_bytes; Json.Int s.s_attempts;
      Json.Bool s.s_ok; Json.Int t.Proto.queue_us; Json.Int t.Proto.relax_us;
      Json.Int t.Proto.prove_us; Json.Int t.Proto.encode_us;
      Json.Int t.Proto.total_us; Json.Float s.s_probe_ms;
      Json.Float s.s_steal_pct ]

let sample_fields =
  [ "q"; "lat_ms"; "attempt_ms"; "verify_ms"; "vo_bytes"; "attempts"; "ok";
    "queue_us"; "relax_us"; "prove_us"; "encode_us"; "total_us"; "probe_ms";
    "steal_pct" ]

let ops_json snap =
  Json.Obj
    (List.map
       (fun (c, n) -> (Telemetry.counter_name c, Json.Int n))
       (Telemetry.ops snap))

let timed_ops f =
  let before = Telemetry.snapshot () in
  let r = f () in
  (r, Telemetry.diff ~earlier:before ~later:(Telemetry.snapshot ()))

(* Median per-call cost in ms over 7 timed blocks; a block repeats the
   call until it has run for at least 5 ms. *)
let unit_cost name f =
  let t0 = now () in
  f ();
  let one = Float.max 1e-6 (ms_since t0) in
  let reps = max 1 (int_of_float (5.0 /. one)) in
  let per_call =
    List.init 7 (fun _ ->
        span ("unit." ^ name) (fun s ->
            s.attrs <- [ ("reps", Json.Int reps) ];
            let b0 = now () in
            for _ = 1 to reps do f () done;
            ms_since b0 /. float_of_int reps))
  in
  List.nth (List.sort compare per_call) 3

module Bench (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Ads_io = Zkqac_core.Ads_io.Make (P)
  module Cl = Client.Make (P)

  let g_size = String.length (P.G.to_bytes P.G.g)

  (* Group elements a signature's decoder reads: the encoding is
     u16 |tau| ++ tau ++ Y ++ W ++ u16 ++ S_i.. ++ u16 ++ P_j.. *)
  let sig_points s =
    let b = Abs.to_bytes s in
    let tau = (Char.code b.[0] lsl 8) lor Char.code b.[1] in
    (String.length b - 6 - tau) / g_size

  let entry_points = function
    | Vo.Accessible { app; _ } -> sig_points app
    | Vo.Inaccessible_leaf { aps; _ } | Vo.Inaccessible_node { aps; _ } ->
      sig_points aps

  type entry_mix = { acc : int; leaf : int; node : int }

  let mix vo =
    List.fold_left
      (fun m -> function
        | Vo.Accessible _ -> { m with acc = m.acc + 1 }
        | Vo.Inaccessible_leaf _ -> { m with leaf = m.leaf + 1 }
        | Vo.Inaccessible_node _ -> { m with node = m.node + 1 })
      { acc = 0; leaf = 0; node = 0 } vo

  (* One set-up step as a span; returns its result and its seconds. It
     also notes the host's steal during the step (into [steals], newest
     first). *)
  let step ~steals name f =
    let ticks = cpu_ticks () in
    let r, secs =
      span name (fun s ->
          let r = f () in
          (r, ms_between s.start (now ()) /. 1e3))
    in
    steals := steal_pct ticks (cpu_ticks ()) :: !steals;
    (r, secs)

  (* The CPU probe runs after build and after save, where nothing else
     runs: not right after the heap compaction that starts a repetition,
     nor while the server process starts. *)
  let setup_once (w : workload) ~seed inp ~path =
    let steals = ref [] in
    let step name f = step ~steals name f in
    let drbg = Drbg.create ~seed:(Printf.sprintf "perfbench:%s:%d" w.name seed) in
    let (mvk, sk), t_keygen =
      step "setup.keygen" (fun () ->
          let msk, mvk = Abs.setup drbg in
          (mvk, Abs.keygen drbg msk (Universe.attrs inp.universe)))
    in
    let tree, t_build =
      step "setup.build" (fun () ->
          Ap2g.build drbg ~mvk ~sk ~space:inp.space ~universe:inp.universe
            ~pseudo_seed:(Printf.sprintf "perfbench-pseudo:%d" seed)
            inp.records)
    in
    let probe_built = cpu_probe_ms ~runs:10 () in
    let (), t_save = step "setup.save" (fun () -> Ads_io.save ~path ~mvk tree) in
    let probe_saved = cpu_probe_ms ~runs:10 () in
    (* Server.start until ready, in the server process: it decodes every
       signature of the checkpoint. *)
    let child, t_load =
      step "setup.load" (fun () -> spawn_server w.backend path)
    in
    let st = Ap2g.stats tree in
    let info =
      Json.Obj
        [ ("keygen_s", Json.Float t_keygen); ("build_s", Json.Float t_build);
          ("save_s", Json.Float t_save); ("load_s", Json.Float t_load);
          ("probes_ms", Json.Arr [ Json.Float probe_built; Json.Float probe_saved ]);
          ("steals_pct", Json.Arr (List.rev_map (fun p -> Json.Float p) !steals));
          ("signatures",
           Json.Int (st.Ap2g.leaf_signatures + st.Ap2g.node_signatures));
          ("ads_bytes", Json.Int (Unix.stat path).Unix.st_size) ]
    in
    (mvk, tree, child, info)

  let check_answer inp qi records =
    let got =
      List.sort compare
        (List.map (fun r -> (Array.to_list r.Record.key, r.Record.value)) records)
    in
    got = inp.expected.(qi)

  (* Closed loop with one client: it sends query i + 1 of the seeded
     sequence only after query i is verified. Every workload uses one
     client; with two on mock-service both vCPUs were busy and p50 moved
     with every burst of CPU the host took. *)
  let drive ?(min_queries = 0) ~stop_at ~max_queries run_one =
    let rec loop i acc =
      if (now () >= stop_at && i >= min_queries) || i >= max_queries then List.rev acc
      else loop (i + 1) (run_one i :: acc)
    in
    let t0 = now () in
    let all = loop 0 [] in
    (all, ms_since t0 /. 1e3)

  let timed_query (w : workload) ~seed ~phase inp ~mvk ~cfg ~prng i =
    let qi = i mod Array.length inp.queries in
    let query = inp.queries.(qi) in
    let t0 = now () in
    let r =
      Cl.query ~prng ~req_id:(req_id ~seed ~phase i) cfg ~mvk
        ~universe:inp.universe ~user:inp.user ~query ()
    in
    let lat = ms_since t0 in
    match r with
    | Ok s ->
      let ok = check_answer inp qi s.Cl.records in
      let char_ok =
        match w.character with
        | Only_results -> List.length s.Cl.records = Box.volume query
        | Relaxes -> (
          match s.Cl.server with Some t -> t.Proto.relax_us > 0 | None -> false)
        | One_cell -> true
      in
      { s_q = i; s_lat_ms = lat; s_attempt_ms = s.Cl.attempt_ms;
        s_verify_ms = s.Cl.verify_ms; s_vo_bytes = s.Cl.vo_bytes;
        s_attempts = s.Cl.attempts; s_ok = ok; s_timing = s.Cl.server;
        s_error = verdict w ~ok ~char_ok; s_probe_ms = 0.0; s_steal_pct = 0.0 }
    | Error f -> failed_sample i lat (Client.failure_to_string f)

  (* The same exchange as Client.query, one attempt, assembled from the
     public Sockio / Proto / Vo / Ap2g calls so each layer gets its own
     span. Batch verification is seeded exactly as the client seeds it. *)
  let traced_query (w : workload) ~seed inp ~mvk ~(cfg : Client.config) i =
    let qi = i mod Array.length inp.queries in
    let query = inp.queries.(qi) in
    let rid = req_id ~seed ~phase:1 i in
    let t0 = now () in
    let result =
      try
        span "bench.query" ~req:rid @@ fun root ->
        let sub name f = span name ~parent:root.sid ~req:rid f in
        let fd =
          sub "net.connect" (fun _ ->
              Sockio.connect ~host:cfg.host ~port:cfg.port
                ~timeout:cfg.connect_timeout)
        in
        let payload, timing =
          Fun.protect ~finally:(fun () -> Sockio.close_noerr fd) @@ fun () ->
          sub "net.send" (fun _ ->
              Sockio.write_frame fd
                ~deadline:(Sockio.deadline_after cfg.write_deadline)
                (Proto.encode_request
                   { Proto.req_id = Some rid;
                     roles = Attr.Set.elements inp.user; query }));
          sub "net.wait" (fun s ->
              let frame =
                Sockio.read_frame fd
                  ~deadline:(Sockio.deadline_after cfg.read_deadline)
                  ~max_bytes:Wire.default_limits.Wire.max_bytes
              in
              match Proto.decode_response ~limits:Wire.default_limits frame with
              | Ok (Proto.Vo vo, Some f) when f.Proto.f_req_id = rid ->
                let t = f.Proto.f_timing in
                s.attrs <-
                  [ ("queue_us", Json.Int t.Proto.queue_us);
                    ("relax_us", Json.Int t.Proto.relax_us);
                    ("prove_us", Json.Int t.Proto.prove_us);
                    ("encode_us", Json.Int t.Proto.encode_us);
                    ("total_us", Json.Int t.Proto.total_us) ];
                (vo, t)
              | Ok (resp, _) -> failwith ("response " ^ Proto.response_code resp)
              | Error e -> failwith (Zkqac_util.Verify_error.code e))
        in
        let vo =
          sub "client.decode" (fun s ->
              match Vo.decode payload with
              | Ok vo ->
                let m = mix vo in
                s.attrs <-
                  [ ("vo_bytes", Json.Int (String.length payload));
                    ("g_points",
                     Json.Int (List.fold_left (fun a e -> a + entry_points e) 0 vo));
                    ("accessible", Json.Int m.acc);
                    ("inaccessible", Json.Int (m.leaf + m.node)) ];
                vo
              | Error e -> failwith (Zkqac_util.Verify_error.code e))
        in
        let records =
          sub "client.verify" (fun _ ->
              let batch = Drbg.create ~seed:("zkqac-client-batch:" ^ payload) in
              match
                Ap2g.verify ~batch ~mvk ~t_universe:inp.universe ~user:inp.user
                  ~query vo
              with
              | Ok r -> r
              | Error e -> failwith (Vo.error_to_string e))
        in
        let m = mix vo in
        let char_ok =
          match w.character with
          | Only_results -> m.leaf + m.node = 0
          | Relaxes -> m.leaf + m.node > 0
          | One_cell -> List.length vo = 1
        in
        let ok = check_answer inp qi records in
        Ok (String.length payload, timing, ok, char_ok)
      with e -> Error (Printexc.to_string e)
    in
    let lat = ms_since t0 in
    match result with
    | Ok (bytes, timing, ok, char_ok) ->
      { s_q = i; s_lat_ms = lat; s_attempt_ms = 0.0; s_verify_ms = 0.0;
        s_vo_bytes = bytes; s_attempts = 1; s_ok = ok; s_timing = Some timing;
        s_error = verdict w ~ok ~char_ok; s_probe_ms = 0.0; s_steal_pct = 0.0 }
    | Error e -> failed_sample i lat e

  (* The SP's work for the same queries, in this process: range_vo with the
     relax batch timed job by job through ?pmap, then VO encoding. *)
  let sp_replay (w : workload) ~seed inp ~mvk ~tree ~count ~budget_s =
    let drbg = Drbg.create ~seed:"perfbench-sp" in
    let stop_at = Int64.add (now ()) (Int64.of_float (budget_s *. 1e9)) in
    let violations = ref [] in
    let rec go m =
      if m >= count || (m > 0 && now () >= stop_at) then m
      else begin
        let query = inp.queries.(m mod Array.length inp.queries) in
        let rid = req_id ~seed ~phase:2 m in
        span "sp.query" ~req:rid (fun root ->
            let vo, st =
              span "sp.range_vo" ~parent:root.sid ~req:rid (fun rv ->
                  let pmap jobs =
                    List.map
                      (fun j -> span "abs.relax" ~parent:rv.sid ~req:rid (fun _ -> j ()))
                      jobs
                  in
                  let vo, st =
                    Ap2g.range_vo ~pmap drbg ~mvk tree ~user:inp.user query
                  in
                  let mx = mix vo in
                  rv.attrs <-
                    [ ("relax_calls", Json.Int st.Ap2g.relax_calls);
                      ("nodes_visited", Json.Int st.Ap2g.nodes_visited);
                      ("accessible", Json.Int mx.acc);
                      ("inaccessible_leaf", Json.Int mx.leaf);
                      ("inaccessible_node", Json.Int mx.node) ];
                  (vo, st))
            in
            span "vo.encode" ~parent:root.sid ~req:rid (fun s ->
                s.attrs <- [ ("vo_bytes", Json.Int (String.length (Vo.to_bytes vo))) ]);
            let mx = mix vo in
            let broken =
              match w.character with
              | Relaxes -> st.Ap2g.relax_calls = 0
              | Only_results -> st.Ap2g.relax_calls <> 0 || mx.leaf + mx.node > 0
              | One_cell -> List.length vo <> 1
            in
            if broken then
              violations :=
                Printf.sprintf "sp replay of query %d breaks %s" m w.name
                :: !violations);
        go (m + 1)
      end
    in
    let m, ops = timed_ops (fun () -> go 0) in
    (m, ops, !violations)

  (* Unit costs on this backend with this workload's policies: the rungs
     the accounting multiplies op counts by. *)
  let ladder inp =
    let drbg = Drbg.create ~seed:"perfbench-ladder" in
    let msk, mvk' = Abs.setup drbg in
    let sk = Abs.keygen drbg msk (Universe.attrs inp.universe) in
    let policy =
      match
        List.find_opt (fun p -> not (Expr.eval p inp.probe_user))
          (Array.to_list inp.policies)
      with
      | Some p -> p
      | None -> inp.policies.(0)
    in
    let msg = Record.message_of (List.hd inp.records) in
    let keep = Universe.missing inp.universe ~user:inp.probe_user in
    let sg = Abs.sign drbg mvk' sk ~msg ~policy in
    let a = P.rand_g drbg and b = P.rand_g drbg and k = P.rand_scalar drbg in
    let pairs n = List.init n (fun _ -> (P.rand_g drbg, P.rand_g drbg)) in
    let p1 = pairs 1 and p9 = pairs 9 in
    let gt = P.e a b in
    let g_bytes = P.G.to_bytes a and gt_bytes = P.Gt.to_bytes gt in
    let block = String.make 55 'x' in
    let cost name f = (name, unit_cost name f) in
    let e1 = unit_cost "group.e_prod_base_ms" (fun () -> ignore (P.e_prod p1)) in
    let e9 = unit_cost "group.e_prod_9_ms" (fun () -> ignore (P.e_prod p9)) in
    [ cost "abs.sign_ms" (fun () -> ignore (Abs.sign drbg mvk' sk ~msg ~policy));
      cost "abs.verify_ms" (fun () -> ignore (Abs.verify mvk' ~msg ~policy sg));
      cost "abs.relax_ms" (fun () ->
          ignore (Abs.relax drbg mvk' sg ~msg ~policy ~keep));
      cost "group.pairing_ms" (fun () -> ignore (P.e a b));
      ("group.e_prod_base_ms", e1);
      ("group.e_prod_term_ms", (e9 -. e1) /. 8.0);
      cost "group.g_exp_ms" (fun () -> ignore (P.G.pow a k));
      cost "group.g_mul_ms" (fun () -> ignore (P.G.mul a b));
      cost "group.gt_exp_ms" (fun () -> ignore (P.Gt.pow gt k));
      cost "group.gt_mul_ms" (fun () -> ignore (P.Gt.mul gt gt));
      cost "group.g_decode_ms" (fun () -> ignore (P.G.of_bytes g_bytes));
      cost "group.gt_decode_ms" (fun () -> ignore (P.Gt.of_bytes gt_bytes));
      cost "hash.sha256_compress_ms" (fun () -> ignore (Sha256.digest block)) ]

  let samples_json l = Json.Arr (List.map sample_json l)

  let run (w : workload) ~seed ~seconds ~trace ~out =
    let inp = make_inputs w ~seed in
    let violations = ref (input_violations w inp) in
    let ads = Filename.concat out (Printf.sprintf "%s-%d.ads" w.name seed) in
    let reps =
      List.init setup_reps (fun r ->
          (* Each repetition starts from a compacted heap, so it does not
             pay for the garbage of the one before. *)
          Gc.compact ();
          let mvk, tree, child, info = setup_once w ~seed inp ~path:ads in
          if r < setup_reps - 1 then begin
            let code = stop_server child in
            if code <> 0 then
              violations := Printf.sprintf "set-up server exited %d" code :: !violations
          end;
          (mvk, tree, child, info))
    in
    let mvk, tree, child, _ = List.nth reps (setup_reps - 1) in
    let cfg = { Client.default_config with port = child.port } in
    let prng = Prng.create (seed * 31) in
    (* The client starts from a compacted heap, not from set-up's garbage. *)
    Gc.compact ();
    let warm, _ =
      drive ~stop_at:Int64.max_int ~max_queries:w.warm
        (timed_query w ~seed ~phase:3 inp ~mvk ~cfg ~prng)
    in
    let rss = vm_hwm_mb child.pid in
    let fallbacks0 = Metrics.batch_fallbacks () in
    let probe0 = cpu_probe_ms () in
    let stop_at = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
    let ticks0 = cpu_ticks () in
    (* The CPU probe after every query: between queries both processes
       are idle, so it times the CPU the next and the last query ran on.
       Its own time is left out of the window's wall time. *)
    let probing_ms = ref 0.0 in
    (* At least one whole cycle of the query sequence, where a cycle is
       short enough to finish in any window (not on mock-service). *)
    let cycle = Array.length inp.queries in
    let min_queries = if cycle <= 64 then cycle else 0 in
    let timed, wall =
      drive ~min_queries ~stop_at ~max_queries:max_int (fun i ->
          let ticks = cpu_ticks () in
          let s = timed_query w ~seed ~phase:0 inp ~mvk ~cfg ~prng i in
          let steal = steal_pct ticks (cpu_ticks ()) in
          let p0 = now () in
          let s = { s with s_probe_ms = cpu_probe_ms (); s_steal_pct = steal } in
          probing_ms := !probing_ms +. ms_since p0;
          s)
    in
    let wall = wall -. (!probing_ms /. 1e3) in
    let steal = steal_pct ticks0 (cpu_ticks ()) in
    let fallbacks = Metrics.batch_fallbacks () - fallbacks0 in
    let scraped =
      scrape_metrics ~port:child.mport
        [ "zkqac_server_connections_total"; "zkqac_server_shed_total";
          "zkqac_server_requests_total" ]
    in
    let traced_samples = ref [] in
    let traced =
      if not trace then []
      else begin
        let n = List.length timed in
        let fb0 = Metrics.batch_fallbacks () in
        (* The timed window's queries again, within a budget a little
           longer than the window, for the tracing cost. *)
        let stop_at = Int64.add (now ()) (Int64.of_float (seconds *. 1.5e9)) in
        let (samples, twall), ops =
          Telemetry.with_enabled (fun () ->
              timed_ops (fun () ->
                  drive ~stop_at ~max_queries:n
                    (traced_query w ~seed inp ~mvk ~cfg)))
        in
        traced_samples := samples;
        let fbs = Metrics.batch_fallbacks () - fb0 in
        let m, sp_ops, sp_violations =
          Telemetry.with_enabled (fun () ->
              sp_replay w ~seed inp ~mvk ~tree ~count:n
                ~budget_s:(Float.max 2.0 (seconds /. 4.0)))
        in
        violations := sp_violations @ !violations;
        let units = Telemetry.with_enabled (fun () -> ladder inp) in
        let trace_file =
          Filename.concat out (Printf.sprintf "%s-%d.trace.json" w.name seed)
        in
        write_trace trace_file;
        [ ( "traced",
            Json.Obj
              [ ("wall_s", Json.Float twall); ("samples", samples_json samples);
                ("ops", ops_json ops); ("fallbacks", Json.Int fbs) ] );
          ("sp", Json.Obj [ ("queries", Json.Int m); ("ops", ops_json sp_ops) ]);
          ("units", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) units));
          ("trace_file", Json.Str trace_file) ]
      end
    in
    let drain_exit = stop_server child in
    (try Sys.remove ads with Sys_error _ -> ());
    Json.Obj
      ([ ("workload", Json.Str w.name); ("seed", Json.Int seed);
         ("backend", Json.Str (Backend.to_string w.backend));
         ("rows", Json.Int w.rows);
         ("records", Json.Int (List.length inp.records));
         ("user_roles", Json.Int (Attr.Set.cardinal inp.user));
         ("cycle", Json.Int (Array.length inp.queries));
         ("setup", Json.Arr (List.map (fun (_, _, _, i) -> i) reps));
         ("warm", Json.Obj [ ("samples", samples_json warm) ]);
         ("sample_fields", Json.Arr (List.map (fun f -> Json.Str f) sample_fields));
         ( "timed",
           Json.Obj
             [ ("wall_s", Json.Float wall); ("samples", samples_json timed);
               ("fallbacks", Json.Int fallbacks); ("steal_pct", Json.Float steal);
               ("probe0_ms", Json.Float probe0) ] );
         (* Wrong answers and broken workload characters, from both
            phases; the first few are kept. *)
         ( "errors",
           Json.Arr
             (List.filter_map
                (fun s -> Option.map (fun e -> Json.Str e) s.s_error)
                (warm @ timed @ !traced_samples)
             |> List.filteri (fun i _ -> i < 10)) );
         ( "server",
           Json.Obj
             ([ ("rss_mb", Json.Float rss); ("drain_exit", Json.Int drain_exit) ]
             @ List.map (fun (k, v) -> (k, Json.Float v)) scraped) );
         ("violations", Json.Arr (List.map (fun v -> Json.Str v) !violations)) ]
      @ traced)
end

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: zkbench run --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--cpu C]\n\
    \       zkbench serve BACKEND ADS";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: backend :: ads :: [] -> (
    match Backend.of_string backend with
    | Some kind -> serve kind ads
    | None -> usage ())
  | _ :: "run" :: args ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let w =
      match List.find_opt (fun (w : workload) -> w.name = get "workload") workloads with
      | Some w -> w
      | None ->
        prerr_endline ("zkbench: unknown workload " ^ get "workload");
        exit 2
    in
    let seed = int_of_string (get "seed") in
    let seconds = float_of_string (get "seconds") in
    let trace = get "trace" = "1" in
    let out = get "out" in
    pinned_cpu := Option.map int_of_string (List.assoc_opt "cpu" o);
    let module P = (val Backend.instantiate w.backend) in
    let module B = Bench (P) in
    let report = B.run w ~seed ~seconds ~trace ~out in
    print_endline (Json.to_string report)
  | _ -> usage ()
