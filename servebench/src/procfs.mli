(** Parsers for the /proc files the harness reads about the server. *)

val cpu_seconds_of_stat : string -> (float, string) result
(** utime + stime, in seconds, from the text of [/proc/<pid>/stat]. *)

val vmhwm_kb_of_status : string -> (int, string) result
(** The [VmHWM] (peak resident set) line of [/proc/<pid>/status], in kB. *)

val cpu_seconds : int -> (float, string) result
(** {!cpu_seconds_of_stat} of a live process. *)

val vmhwm_kb : int -> (int, string) result
(** {!vmhwm_kb_of_status} of a live process. *)
