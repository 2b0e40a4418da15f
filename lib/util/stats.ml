let percentile_in_place samples p =
  if Float.is_nan p || p < 0.0 || p > 1.0 then
    invalid_arg "Stats.percentile: p out of range";
  if Array.length samples = 0 then nan
  else begin
    (* Float.compare, not polymorphic compare: same ordering (including
       nan), but the polymorphic path boxes both floats per comparison. *)
    Array.sort Float.compare samples;
    (* Float.compare sorts nan before every number, so one O(1) probe
       after the sort covers the whole array. *)
    if Float.is_nan samples.(0) then
      invalid_arg "Stats.percentile: nan sample";
    let n = Array.length samples in
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (samples.(lo) *. (1.0 -. frac)) +. (samples.(hi) *. frac)
  end

let percentile samples p = percentile_in_place (Array.copy samples) p
