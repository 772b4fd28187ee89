(* In-memory spans around the harness's own calls into each layer.

   A span records its name, parent, request id, monotonic start and end,
   and the minor-heap words the calling domain allocated inside it.
   Spans stay in memory while the run measures and are written out as
   NDJSON at its end.  When tracing is off [span] is a direct call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;
  start_ns : int64;
  stop_ns : int64;
  words : float;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let req = ref 0

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = Gc.minor_words () and t0 = Monotonic_clock.now () in
    let finish () =
      let t1 = Monotonic_clock.now () and w1 = Gc.minor_words () in
      stack := List.tl !stack;
      spans :=
        { id; name; parent; req = !req; start_ns = t0; stop_ns = t1; words = w1 -. w0 } :: !spans
    in
    Fun.protect ~finally:finish f
  end

let duration_ms s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e6

(* Self time: the span's duration minus the part its children cover
   (children of one span never overlap: the harness is sequential). *)
let self_ms () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration_ms s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  fun s -> duration_ms s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)

let named name = List.filter (fun s -> s.name = name) !spans

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"minor_words\":%.0f}\n"
            s.id s.name s.parent s.req s.start_ns s.stop_ns s.words)
        (List.rev !spans))
