(* The traced run: per-layer figures for one workload's inputs.

   Spans are taken around the harness's own calls into each layer, in
   this process, on the same files the server was given.  The served
   figures it needs ([transport.overhead_ms], [server.wait_ms_per_request],
   the cache ratios) come from a short one-client window against the
   same server first. *)

module GP = Graphql_pg
module Service = Pg_server.Service
module Stats = Servebench.Stats

(* The separately timed layers of one request must add up to what
   [Service.handle] costs for the same line, within this share. *)
let layer_sum_tolerance = 0.25

let fail = Served.fail

let ok_or what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what e

let median_of f spans =
  match spans with [] -> 0. | _ -> Stats.median (Array.of_list (List.map f spans))

let cache_ratio stats name =
  let c = GP.Json.member name (GP.Json.member "summary" stats) in
  match (GP.Json.member "hits" c, GP.Json.member "misses" c) with
  | GP.Json.Int h, GP.Json.Int m when h + m > 0 -> float_of_int h /. float_of_int (h + m)
  | GP.Json.Int _, GP.Json.Int _ -> 0.
  | _ -> fail "stats response lacks %s" name

(* Repeat [f] until [budget_s] has passed and at least [min] times. *)
let repeat ~budget_s ~min f =
  let t0 = Served.now_ns () in
  let rec go i =
    if i < min || Served.s_between t0 (Served.now_ns ()) < budget_s then begin
      Tracer.req := !Tracer.req + 1;
      f ();
      go (i + 1)
    end
  in
  go 0

let load_pgf path =
  Tracer.span "pgf.load" (fun () ->
    ok_or path (Result.map_error (fun e -> e.GP.Pgf.message) (GP.Pgf.load path)))

let file_size path = (Unix.stat path).Unix.st_size

let run ~trace_file ~(shape : Inputs.shape) ~seconds ~schema ~graph ~graph_pgf ~line ~dir
    ~warmup_s ~(server : Served.server) ~first =
  let budget = seconds /. 4. in
  (* served: one client *)
  let w =
    Served.closed_loop server ~clients:1 ~line ~expected:first ~warmup_s ~seconds:budget
      ~min_samples:20
  in
  let stats =
    ok_or "stats" (GP.Json.of_string (Served.request server.socket Served.stats_line))
  in
  Served.check "server exit" (Served.stop server);
  let ok = w.attempted - w.failed in
  if ok < 1 then fail "no request completed";
  let served_p50 = Stats.median w.latencies_ms in
  let served_mean = Array.fold_left ( +. ) 0. w.latencies_ms /. float_of_int ok in
  let cpu_ms = w.cpu_s *. 1000. /. float_of_int ok in
  (* in-process, traced *)
  Tracer.on := true;
  let text = In_channel.with_open_bin schema In_channel.input_all in
  let compile () =
    Tracer.span "plan.compile" (fun () ->
      match GP.Frontend.parse_full GP.Frontend.Sdl text with
      | Ok (sch, _) -> GP.Validate.compile sch
      | Error _ -> fail "schema does not parse")
  in
  let plan = compile () in
  repeat ~budget_s:0.2 ~min:10 (fun () -> ignore (compile ()));
  let tmp = Filename.concat dir "trace.snap" in
  let elements = ref 0 in
  let io what r = ok_or what (Result.map_error (fun e -> e.GP.Snapshot_io.message) r) in
  repeat ~budget_s:budget ~min:3 (fun () ->
    Tracer.span "ingest" (fun () ->
      let g = load_pgf graph_pgf in
      let st = GP.Symtab.create () in
      let snap = Tracer.span "snapshot.build" (fun () -> GP.Snapshot.build st g) in
      elements := snap.GP.Snapshot.n + snap.GP.Snapshot.m;
      io "write" (Tracer.span "snapshot_io.write" (fun () -> GP.Snapshot_io.write st snap tmp));
      ignore
        (io "load"
           (Tracer.span "snapshot_io.load" (fun () ->
              GP.Snapshot_io.load (GP.Plan.symtab plan) tmp)))));
  let io what r = ok_or what (Result.map_error (fun e -> e.GP.Snapshot_io.message) r) in
  let cached =
    if shape.snapshot then Some (io graph (GP.Snapshot_io.load (GP.Plan.symtab plan) graph))
    else None
  in
  (* One request, the way the server runs this workload's line once its
     caches are warm: parse and freeze for PGF input, the cached
     snapshot otherwise; then kernels and render. *)
  let decomposed () =
    Tracer.span "request" (fun () ->
      let snap =
        match cached with
        | Some s -> s
        | None ->
          let g = load_pgf graph_pgf in
          Tracer.span "snapshot.build" (fun () -> GP.Snapshot.build (GP.Plan.symtab plan) g)
      in
      let report =
        Tracer.span "kernels.check" (fun () ->
          GP.Validate.check_snapshot ~engine:GP.Validate.Indexed ~mode:GP.Validate.Strong plan
            snap)
      in
      let out =
        Tracer.span "render.envelope" (fun () ->
          Pg_server.Protocol.render
            (GP.Diag_report.envelope ~command:"validate"
               ~summary:(GP.Diag_report.validate_summary report)
               (GP.Validate.diagnostics report)))
      in
      (report, out))
  in
  let same what r =
    Served.check what (if r = first then Ok () else Error "differs from the served response")
  in
  let svc = Service.create () in
  ignore (Service.handle svc line);
  ignore (Service.handle svc line);
  let overheads = ref [] and violations = ref 0 and out_bytes = ref 0 in
  let plain () =
    Tracer.on := false;
    let _, ms = Served.time decomposed in
    Tracer.on := true;
    ms
  in
  let iteration = ref 0 in
  repeat ~budget_s:budget ~min:5 (fun () ->
    let r = Tracer.span "service.handle" (fun () -> Service.handle svc line) in
    same "in-process response" r;
    (* the untraced twin of the request runs before and after it on
       alternate iterations, so that neither order biases the gap *)
    incr iteration;
    let before = if !iteration mod 2 = 0 then Some (plain ()) else None in
    let (report, out), traced_ms = Served.time decomposed in
    let plain_ms = match before with Some ms -> ms | None -> plain () in
    same "decomposed request" out;
    violations := List.length report.GP.Validate.violations;
    out_bytes := String.length out;
    overheads := (traced_ms -. plain_ms) :: !overheads);
  (* two domains calling Service.handle at once on one service *)
  let svc2 = Service.create () in
  ignore (Service.handle svc2 line);
  (* each caller returns its latencies and whether every response
     matched; the verdict is recorded here, in the main domain *)
  let caller () =
    let t0 = Served.now_ns () in
    let rec go acc all_same =
      if Served.s_between t0 (Served.now_ns ()) >= budget && List.length acc >= 5 then
        (acc, all_same)
      else
        let r, dt = Served.time (fun () -> Service.handle svc2 line) in
        go (dt :: acc) (all_same && r = first)
    in
    go [] true
  in
  let other = Domain.spawn caller in
  let mine, mine_same = caller () in
  let theirs, theirs_same = Domain.join other in
  Served.check "two-way responses"
    (if mine_same && theirs_same then Ok () else Error "differ from the served response");
  let two_way = Array.of_list (mine @ theirs) in
  Tracer.on := false;
  (* aggregate *)
  let self = Tracer.self_ms () in
  let requests = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace requests s.Tracer.id ()) (Tracer.named "request");
  let in_request name =
    List.filter (fun s -> Hashtbl.mem requests s.Tracer.parent) (Tracer.named name)
  in
  let med name = median_of self (Tracer.named name) in
  let words name = median_of (fun s -> s.Tracer.words) (Tracer.named name) in
  let handle_ms = med "service.handle" in
  let layers = [ "pgf.load"; "snapshot.build"; "kernels.check"; "render.envelope" ] in
  let layer_sum =
    List.fold_left (fun acc l -> acc +. median_of self (in_request l)) (med "request") layers
  in
  let ratio = layer_sum /. handle_ms in
  Printf.eprintf "servebench: layers add up to %.2f ms, service.handle %.2f ms (ratio %.3f)\n%!"
    layer_sum handle_ms ratio;
  Served.check "layer sum"
    (if Float.abs (ratio -. 1.) <= layer_sum_tolerance then Ok ()
     else
       Error
         (Printf.sprintf "layers add up to %.1f ms against service.handle %.1f ms (tolerance %.0f%%)"
            layer_sum handle_ms
            (100. *. layer_sum_tolerance)));
  (* pgf.load runs inside "ingest" on every workload, and inside
     "request" too for PGF input *)
  let pgf_spans = Tracer.named "pgf.load" in
  let el = float_of_int (max 1 !elements) in
  Tracer.write trace_file;
  let metrics =
    [
      ("pgf.load_ms", "ms", median_of self pgf_spans);
      ( "pgf.alloc_words_per_input_byte",
        "words/B",
        median_of (fun s -> s.Tracer.words) pgf_spans /. float_of_int (file_size graph_pgf) );
      ("snapshot.build_ms", "ms", med "snapshot.build");
      ("snapshot.alloc_words_per_element", "words", words "snapshot.build" /. el);
      ("snapshot_io.write_ms", "ms", med "snapshot_io.write");
      ("snapshot_io.load_ms", "ms", med "snapshot_io.load");
      ("plan.compile_ms", "ms", med "plan.compile");
      ("kernels.check_ms", "ms", med "kernels.check");
      ("kernels.alloc_words_per_element", "words", words "kernels.check" /. el);
      ("kernels.violations", "count", float_of_int !violations);
      ("render.envelope_ms", "ms", med "render.envelope");
      ("render.alloc_words", "words", words "render.envelope");
      ("render.bytes", "bytes", float_of_int !out_bytes);
      ("service.handle_ms", "ms", handle_ms);
      ("service.handle_2way_ms", "ms", Stats.median two_way);
      ("transport.overhead_ms", "ms", served_p50 -. handle_ms);
      ("server.wait_ms_per_request", "ms", served_mean -. cpu_ms);
      ("cache.plan_hit_ratio", "ratio", cache_ratio stats "plan_cache");
      ("cache.snapshot_hit_ratio", "ratio", cache_ratio stats "snapshot_cache");
      ("trace.overhead_ms", "ms", Stats.median (Array.of_list !overheads));
    ]
  in
  (w.attempted, w.failed, metrics)
