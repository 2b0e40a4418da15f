let rel_error expected actual =
  if expected = 0.0 && actual = 0.0 then 0.0
  else Float.abs (actual -. expected) /. Float.max (Float.abs expected) epsilon_float

let close ?(rel = 1e-9) a b = rel_error a b <= rel

let within_pct p ~expected ~actual = rel_error expected actual <= p /. 100.0
