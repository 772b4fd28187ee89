(* The [gpgs serve] child process and the closed-loop load generator. *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6
let s_between a b = Int64.to_float (Int64.sub b a) /. 1e9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, ms_between t0 (now_ns ()))

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* A wrong output of the program under test does not stop the run: it
   clears the verdict the result line reports as [correct]. *)
let verdict = ref true

let check what = function
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "servebench: CHECK FAILED: %s: %s\n%!" what e;
    verdict := false

type server = { pid : int; out : Unix.file_descr; socket : string }

let live : server list ref = ref []

(* Wait for [fd] to become readable, at most [timeout] seconds. *)
let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let read_line_from fd ~timeout =
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. || not (readable fd left) then fail "no ready line from the server"
    else
      match Unix.read fd c 0 1 with
      | 0 -> fail "the server exited before it was ready"
      | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
      | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ()
  in
  go ()

(* Start [gpgs serve] with its own defaults, except for the socket path,
   and return once it prints its ready line. *)
let start ~gpgs ~socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process gpgs [| gpgs; "serve"; "--socket"; socket |] devnull w Unix.stderr
  in
  Unix.close w;
  Unix.close devnull;
  let s = { pid; out = r; socket } in
  live := s :: !live;
  let line = read_line_from r ~timeout:60. in
  if not (String.starts_with ~prefix:"gpgs: serving on" line) then
    fail "unexpected ready line %S" line;
  s

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | _, st -> st
  in
  go ()

(* SIGTERM, then wait for the drain; the server must exit 0.  Its stdout
   is drained to end of file so that a late line cannot hit a closed
   pipe. *)
let stop s =
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  Unix.kill s.pid Sys.sigterm;
  let buf = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. && readable s.out left then
      match Unix.read s.out buf 0 256 with 0 -> () | _ -> drain () | exception _ -> ()
    else Unix.kill s.pid Sys.sigkill
  in
  drain ();
  Unix.close s.out;
  match reap s.pid with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "server exited %d after SIGTERM" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "server killed by signal %d" n)

(* On an abnormal exit of the harness, take down what it started. *)
let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap s.pid))
    !live;
  live := []

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read once into [buf]; [`Line] when the response's newline arrived
   (responses are single lines and the server sends nothing unasked). *)
let read_some fd buf =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | k ->
    Buffer.add_subbytes buf chunk 0 k;
    if Bytes.get chunk (k - 1) = '\n' then `Line else `More

(* One request on a fresh connection, blocking. *)
let request socket line =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd line;
      let buf = Buffer.create 4096 in
      let rec go () =
        if not (readable fd 120.) then fail "no response within 120 s"
        else match read_some fd buf with `Eof -> fail "connection closed" | `More -> go () | `Line -> ()
      in
      go ();
      Buffer.contents buf)

type client = {
  mutable fd : Unix.file_descr;
  buf : Buffer.t;
  mutable sent : int64;
  mutable busy : bool;
}

type window = {
  latencies_ms : float array;
  attempted : int;
  failed : int;
  wall_s : float;
  cpu_s : float;  (** server utime + stime over the window *)
}

(* A closed loop over [clients] connections in this one process: each
   connection sends its next request when the previous response has
   arrived.  [warmup_s] of traffic is discarded, then a window runs
   until [seconds] have passed and at least [min_samples] requests have
   completed; requests in flight at either edge are drained rather than
   cut, so the window holds whole requests only.  A response that
   differs from [expected] or never arrives counts as failed. *)
let closed_loop s ~clients ~line ~expected ~warmup_s ~seconds ~min_samples =
  let cs =
    Array.init clients (fun _ ->
      { fd = connect s.socket; buf = Buffer.create (String.length expected + 1); sent = 0L; busy = false })
  in
  let lat = ref [] and n_ok = ref 0 and n_failed = ref 0 in
  let send c =
    Buffer.clear c.buf;
    c.sent <- now_ns ();
    c.busy <- true;
    write_all c.fd line
  in
  let finish c ok =
    c.busy <- false;
    if ok then begin
      lat := ms_between c.sent (now_ns ()) :: !lat;
      incr n_ok
    end
    else incr n_failed
  in
  (* Run until [stop ()], then drain. *)
  let run stop =
    Array.iter send cs;
    let rec loop () =
      let busy = List.filter (fun c -> c.busy) (Array.to_list cs) in
      if busy <> [] then begin
        let ready =
          match Unix.select (List.map (fun c -> c.fd) busy) [] [] 120. with
          | [], _, _ -> fail "no response within 120 s"
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun c ->
            if List.mem c.fd ready then
              match read_some c.fd c.buf with
              | `More -> ()
              | `Line ->
                finish c (Buffer.length c.buf = String.length expected && Buffer.contents c.buf = expected);
                if not (stop ()) then send c
              | `Eof ->
                finish c false;
                Unix.close c.fd;
                c.fd <- connect s.socket;
                if not (stop ()) then send c)
          busy;
        loop ()
      end
    in
    loop ()
  in
  let t_warm = now_ns () in
  run (fun () -> s_between t_warm (now_ns ()) >= warmup_s);
  lat := [];
  n_ok := 0;
  n_failed := 0;
  let cpu () = match Servebench.Procfs.cpu_seconds s.pid with Ok c -> c | Error e -> fail "%s" e in
  let cpu0 = cpu () and t0 = now_ns () in
  run (fun () -> s_between t0 (now_ns ()) >= seconds && !n_ok + !n_failed >= min_samples);
  let t1 = now_ns () and cpu1 = cpu () in
  Array.iter (fun c -> Unix.close c.fd) cs;
  {
    latencies_ms = Array.of_list (List.rev !lat);
    attempted = !n_ok + !n_failed;
    failed = !n_failed;
    wall_s = s_between t0 t1;
    cpu_s = cpu1 -. cpu0;
  }

let stats_line = {|{"op":"stats"}|} ^ "\n"
