(* Order statistics over one run's samples. *)

(* Nearest-rank percentile: the smallest sample such that at least [p]%
   of the samples are at or below it.  No interpolation, so the value is
   always one that was measured. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stats.percentile: p must be in (0, 100]";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* p90 needs 100 samples: 10% of them, at least ten, lie beyond it. *)
let min_samples_for p = int_of_float (Float.ceil (1000. /. (100. -. p)))
