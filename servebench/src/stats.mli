(** Order statistics over one run's samples. *)

val percentile : float -> float array -> float
(** [percentile p xs] is the nearest-rank percentile: the smallest sample
    with at least [p]% of [xs] at or below it.  [p] is in (0, 100].
    @raise Invalid_argument on an empty array or [p] out of range. *)

val median : float array -> float
(** [percentile 50.]. *)

val min_samples_for : float -> int
(** The fewest samples for which at least ten lie beyond the [p]th
    percentile ([100] for p90). *)
