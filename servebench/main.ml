(* The served-validation benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the repository root after building bin/gpgs.exe (run.sh does
   both).  Generates the workload's inputs from the seed, sets up a
   [gpgs serve] child several times, drives it in a closed loop, checks
   every response, and prints one JSON object as the last line of
   stdout: the end-to-end metrics with [--trace 0], the per-layer ones
   with [--trace 1].  Progress goes to stderr. *)

module GP = Graphql_pg
module Service = Pg_server.Service
module Stats = Servebench.Stats

let gpgs = "_build/default/bin/gpgs.exe"
let work_root = "servebench/_work"
let out_root = "servebench/_out"

(* Warm-up traffic discarded before each measured window: covers the
   server's first heap growth and the snapshot cache's one-second
   digest-verification window after a fresh write. *)
let warmup_s = 2.

(* Set-ups per run, [setup_s] being their median: at least
   [min_setups], and more while their total stays under
   [setup_budget_s], so that cheap set-ups get more samples. *)
let min_setups = 5
let max_setups = 15
let setup_budget_s = 4.

let log fmt = Printf.ksprintf prerr_endline ("servebench: " ^^ fmt)
let fail = Served.fail

let usage msg =
  prerr_endline ("servebench: " ^ msg);
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | x :: _ -> usage ("unexpected argument " ^ x)
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing " ^ k) in
  let int k =
    match int_of_string_opt (get k) with Some i -> i | None -> usage (k ^ " takes an integer")
  in
  let name = get "--workload" in
  let w =
    match List.assoc_opt name Inputs.workloads with
    | Some w -> w
    | None -> usage ("unknown workload " ^ name)
  in
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 then usage "--seconds must be at least 1";
  if trace <> 0 && trace <> 1 then usage "--trace takes 0 or 1";
  (name, w, int "--seed", float_of_int seconds, trace = 1)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let run_cli args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process gpgs (Array.of_list (gpgs :: args)) devnull devnull Unix.stderr in
  Unix.close devnull;
  match Served.reap pid with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "gpgs %s failed" (String.concat " " args)

let request_line ~schema ~graph ~snapshot =
  Printf.sprintf
    {|{"op":"validate","schema":%S,"graph":%S,"engine":"indexed","mode":"strong","snapshot":%b}|}
    schema graph snapshot
  ^ "\n"

(* ---- output ---- *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "metric value %f is not finite" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " m)

(* ---- the run ---- *)

type setup = {
  server : Served.server;
  first : string;  (** the first correct response: every later one must equal it *)
  setup_s : float array;
}

(* From nothing to the first correct response: snapshot build (snapshot
   workloads), server start, plan compile and first request: [min_n]
   times, then more while the next would still end within [budget_s].
   All but the last server are stopped; the last one serves the run. *)
let set_up ~min_n ~budget_s ~(shape : Inputs.shape) ~(p : Inputs.prepared) ~socket ~graph ~line =
  let once () =
    let t0 = Served.now_ns () in
    if shape.snapshot then run_cli [ "snapshot"; "build"; p.graph_pgf; "-o"; graph ];
    let s = Served.start ~gpgs ~socket in
    let resp = Served.request socket line in
    let dt = Served.s_between t0 (Served.now_ns ()) in
    Served.check "first response" (p.expect resp);
    (s, resp, dt)
  in
  let rec go k spent acc =
    let s, resp, dt = once () in
    let spent = spent +. dt in
    if k >= max_setups || (k >= min_n && spent +. dt > budget_s) then
      { server = s; first = resp; setup_s = Array.of_list (List.rev (dt :: acc)) }
    else begin
      Served.check "server exit" (Served.stop s);
      go (k + 1) spent (dt :: acc)
    end
  in
  go 1 0. []

(* The twin graph through the same server, the same input form, against
   the spec engine's findings. *)
let check_twin ~(shape : Inputs.shape) ~(p : Inputs.prepared) ~dir ~schema ~socket =
  let twin =
    if shape.snapshot then begin
      let snap = Filename.concat dir "twin.snap" in
      run_cli [ "snapshot"; "build"; p.twin_pgf; "-o"; snap ];
      snap
    end
    else p.twin_pgf
  in
  let resp = Served.request socket (request_line ~schema ~graph:twin ~snapshot:shape.snapshot) in
  Served.check "twin response" (p.expect_twin resp)

(* Minor-heap words one warm request line allocates through
   [Service.handle] in this single domain; the response must equal the
   served one byte for byte. *)
let alloc_words ~line ~first =
  let svc = Service.create () in
  ignore (Service.handle svc line);
  ignore (Service.handle svc line);
  let w0 = Gc.minor_words () in
  let r = Service.handle svc line in
  let w1 = Gc.minor_words () in
  Served.check "in-process response"
    (if r = first then Ok () else Error "differs from the served one");
  w1 -. w0

let end_to_end ~(shape : Inputs.shape) ~seconds ~line (su : setup) =
  let w =
    Served.closed_loop su.server ~clients:shape.clients ~line ~expected:su.first ~warmup_s
      ~seconds ~min_samples:(Stats.min_samples_for 90.)
  in
  let peak_kb =
    match Servebench.Procfs.vmhwm_kb su.server.pid with Ok kb -> kb | Error e -> fail "%s" e
  in
  Served.check "server exit" (Served.stop su.server);
  let ok = w.attempted - w.failed in
  log "set-ups (s): %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") su.setup_s)));
  log "%d requests (%d failed) in %.1f s; server cpu %.2f s" w.attempted w.failed w.wall_s w.cpu_s;
  if ok < 1 then fail "no request completed";
  let words = alloc_words ~line ~first:su.first in
  let metrics =
    [
      ("setup_s", "s", Stats.median su.setup_s);
      ("throughput_rps", "1/s", float_of_int ok /. w.wall_s);
      ("latency_p50_ms", "ms", Stats.percentile 50. w.latencies_ms);
      ("latency_p90_ms", "ms", Stats.percentile 90. w.latencies_ms);
      ("server_cpu_ms_per_request", "ms", w.cpu_s *. 1000. /. float_of_int ok);
      ("peak_rss_mb", "MB", float_of_int peak_kb /. 1024.);
      ("alloc_mb_per_request", "MB", words *. float_of_int (Sys.word_size / 8) /. 1e6);
      ("response_bytes", "bytes", float_of_int (String.length su.first));
    ]
  in
  (w.attempted, w.failed, metrics)

let main () =
  let name, w, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists gpgs) then usage (gpgs ^ " is not built (run servebench/run.sh)");
  let shape = Inputs.shape w in
  let dir = Printf.sprintf "%s/%s-%d" work_root name (Unix.getpid ()) in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () ->
    Served.kill_all ();
    rm_rf dir);
  let schema = Filename.concat dir "social.graphql" in
  write_file schema Pg_gen.Social.schema_text;
  let p, gen_ms = Served.time (fun () -> Inputs.prepare ~dir ~seed w) in
  log "%s seed %d: %d nodes, %d edges; inputs and spec oracle ready in %.0f ms (%d spec findings \
       on the twin)"
    name seed p.nodes p.edges gen_ms p.twin_violations;
  let graph = if shape.snapshot then Filename.concat dir "graph.snap" else p.graph_pgf in
  let line = request_line ~schema ~graph ~snapshot:shape.snapshot in
  let socket = Filename.concat dir "s.sock" in
  let su =
    if trace then set_up ~min_n:1 ~budget_s:0. ~shape ~p ~socket ~graph ~line
    else set_up ~min_n:min_setups ~budget_s:setup_budget_s ~shape ~p ~socket ~graph ~line
  in
  check_twin ~shape ~p ~dir ~schema ~socket;
  Gc.compact ();
  let attempted, failed, metrics =
    if trace then begin
      mkdir_p out_root;
      Trace_run.run
        ~trace_file:(Printf.sprintf "%s/%s.trace.ndjson" out_root name)
        ~shape ~seconds ~schema ~graph ~graph_pgf:p.graph_pgf ~line ~dir ~warmup_s
        ~server:su.server ~first:su.first
    end
    else end_to_end ~shape ~seconds ~line su
  in
  print_result ~correct:!Served.verdict ~attempted ~failed metrics

let () =
  (* a signal still runs the at_exit clean-up: server down, files gone *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  match main () with
  | () -> ()
  | exception Served.Failed msg ->
    prerr_endline ("servebench: FAILED: " ^ msg);
    exit 1
  | exception e ->
    prerr_endline ("servebench: FAILED: " ^ Printexc.to_string e);
    exit 1
