(* Parsers for the two /proc files the harness reads about the server. *)

(* Linux reports utime/stime in USER_HZ ticks, fixed at 100 on every
   architecture the kernel exposes to user space through /proc. *)
let user_hz = 100.

(* /proc/<pid>/stat is "pid (comm) state f4 f5 ...".  The command name
   may hold spaces and parentheses, so fields are counted from the last
   ')'.  utime and stime are fields 14 and 15 of the whole line. *)
let cpu_seconds_of_stat text =
  match String.rindex_opt text ')' with
  | None -> Error "no ')' after the command name"
  | Some i -> (
    let rest = String.sub text (i + 1) (String.length text - i - 1) in
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
    (* fields.(0) is field 3 (state), so field k is at index k - 3 *)
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s -> (
      match (int_of_string_opt u, int_of_string_opt s) with
      | Some u, Some s -> Ok (float_of_int (u + s) /. user_hz)
      | _ -> Error "utime/stime are not integers")
    | _ -> Error "fewer than 15 fields")

(* /proc/<pid>/status holds "VmHWM:\t   12345 kB": the peak resident set. *)
let vmhwm_kb_of_status text =
  let field line =
    match String.index_opt line ':' with
    | Some i when String.sub line 0 i = "VmHWM" ->
      let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      (match String.split_on_char ' ' v with
      | n :: _ -> int_of_string_opt n
      | [] -> None)
    | _ -> None
  in
  match List.find_map field (String.split_on_char '\n' text) with
  | Some kb -> Ok kb
  | None -> Error "no VmHWM line"

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* /proc files report size 0: read until end of file *)
        let b = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          let k = input ic chunk 0 4096 in
          if k > 0 then begin
            Buffer.add_subbytes b chunk 0 k;
            go ()
          end
        in
        go ();
        Ok (Buffer.contents b))

let cpu_seconds pid =
  Result.bind (read_file (Printf.sprintf "/proc/%d/stat" pid)) cpu_seconds_of_stat

let vmhwm_kb pid =
  Result.bind (read_file (Printf.sprintf "/proc/%d/status" pid)) vmhwm_kb_of_status
