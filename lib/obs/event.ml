type track = { process : string; thread : string }

let track ~process ~thread = { process; thread }

type arg = S of string | I of int | F of float

type t =
  | Span of {
      track : track;
      name : string;
      cat : string;
      ts_s : float;
      dur_s : float;
      args : (string * arg) list;
    }
  | Instant of {
      track : track;
      name : string;
      cat : string;
      ts_s : float;
      args : (string * arg) list;
    }
  | Counter of { track : track; name : string; ts_s : float; value : float }

let ts_s = function
  | Span { ts_s; _ } | Instant { ts_s; _ } | Counter { ts_s; _ } -> ts_s

let end_s = function
  | Span { ts_s; dur_s; _ } -> ts_s +. dur_s
  | Instant { ts_s; _ } | Counter { ts_s; _ } -> ts_s
