(** Independent checks of one [validate] response line.

    Responses are judged by envelope fields and by the element ids their
    diagnostics name, never by message text, so a report form that
    groups a collision into one diagnostic passes the same checks as the
    one-diagnostic-per-pair form. *)

val subject_ids : string -> string list
(** The node and edge ids ([n12], [e7]) a diagnostic subject names. *)

val pairs : int -> int
(** [pairs k] = C(k, 2), the pairs a collision group of [k] members yields. *)

val check_clean : nodes:int -> edges:int -> string -> (unit, string) result
(** Status [ok], exit 0, complete, no violations, and the graph's node
    and edge counts. *)

type expectation = {
  nodes : int;
  edges : int;
  groups : (string * string list list) list;
      (** per pairwise rule code (DS7, DS3): the colliding groups' member ids *)
  others : (string * string list) list;
      (** every other violation expected, as (code, ids); a multiset *)
}

val check_findings : expectation -> string -> (unit, string) result
(** Status [findings], exit 1, complete, the counts; for each grouped
    code, diagnostics that name exactly the groups' members, stay within
    one group each, and cover Σ C(k,2) distinct pairs; every other
    diagnostic equal, as (code, ids), to [others]. *)

val groups_of_pairs : (string * string) list -> string list list
(** The connected components of a pair list, each sorted, in order. *)
