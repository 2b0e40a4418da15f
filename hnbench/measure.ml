(* Host-side measurement for the benchmark: clocks, medians, the
   two-domain spin probe, provenance, the output-check ledger and the span
   recorder behind the traced run.  Everything here times the program from
   outside, around calls into the public [Hnlpu] facade. *)

module Sink = Hnlpu.Obs.Sink
module Event = Hnlpu.Obs.Event

let now () = Unix.gettimeofday ()

(* User + system seconds of the whole process, every domain included. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Measure.median: empty"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- Effective parallel width ------------------------------------------- *)

(* A xorshift loop seeded through [opaque_identity] and returned to the
   caller: the compiler can neither fold it nor hoist it, and it touches no
   memory, so two copies on two free cores take the time of one. *)
let spin n =
  let x = ref (Sys.opaque_identity 0x2545F491) in
  for _ = 1 to n do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  !x

let timed_spin n =
  let t0 = now () in
  ignore (Sys.opaque_identity (spin n));
  now () -. t0

(* Cores the host actually grants two domains: 2 × (one spin alone) /
   (two spins side by side).  ~2.0 on two free cores, ~1.0 when the
   domains share one.  Median of five trials of ~0.1 s each: the host's
   other tenants come and go, so a shorter probe reads one moment. *)
let effective_width () =
  let n = 1_000_000 in
  let per_iter = timed_spin n /. float_of_int n in
  let n = max n (int_of_float (0.1 /. Float.max per_iter 1e-12)) in
  let trial () =
    let alone = timed_spin n in
    let t0 = now () in
    let other = Domain.spawn (fun () -> spin n) in
    ignore (Sys.opaque_identity (spin n));
    ignore (Sys.opaque_identity (Domain.join other));
    let pair = now () -. t0 in
    2.0 *. alone /. pair
  in
  median (List.init 5 (fun _ -> trial ()))

(* --- Provenance ------------------------------------------------------------ *)

let read_line_opt path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)

(* The commit checked out in the current directory, read from [.git]
   directly (no subprocess); "unknown" outside a git checkout. *)
let git_rev () =
  let packed name =
    match open_in ".git/packed-refs" with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line -> (
              match String.split_on_char ' ' line with
              | [ rev; r ] when r = name -> Some rev
              | _ -> scan ())
          in
          scan ())
  in
  match read_line_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.sub head 0 pl = prefix then begin
      let name = String.sub head pl (String.length head - pl) in
      match read_line_opt (Filename.concat ".git" name) with
      | Some rev -> rev
      | None -> Option.value (packed name) ~default:"unknown"
    end
    else head

let provenance ~width =
  let module J = Hnlpu.Obs.Json in
  J.obj
    [
      ("git_rev", J.string (git_rev ()));
      ("ocaml", J.string Sys.ocaml_version);
      ("dune_profile", J.string Build_info.profile);
      ("nproc", J.int (Domain.recommended_domain_count ()));
      ("effective_width", J.number width);
    ]

(* --- Output checks ---------------------------------------------------------- *)

(* Every output check the benchmark makes lands here; [failed] over
   [attempted] is the run's fail ratio. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* names of failed checks, newest first *)
}

let checks () = { attempted = 0; failed = 0; failures = [] }

let expect c name ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.failures <- name :: c.failures
  end

(* --- Spans ------------------------------------------------------------------ *)

(* A traced run records one host-time span per call into a layer, on one
   track per workload, every span tagged with the run's id, the units of
   work the call did and the minor-heap words it allocated on the calling
   domain.  Start times are seconds since the run began. *)
type tracer = { sink : Sink.t; track : Event.track; id : string; t0 : float }

let tracer ~workload ~seed =
  {
    sink = Sink.create ();
    track = Event.track ~process:"hnbench" ~thread:workload;
    id = Printf.sprintf "%s/seed%d" workload seed;
    t0 = now ();
  }

let span tr ~layer ?(work = 1) name f =
  match tr with
  | None -> f ()
  | Some tr ->
    let w0 = Gc.minor_words () in
    let s = now () in
    let v = f () in
    let e = now () in
    let words = Gc.minor_words () -. w0 in
    Sink.span tr.sink ~cat:layer
      ~args:[ ("id", Event.S tr.id); ("work", Event.I work); ("words", Event.F words) ]
      ~track:tr.track ~name ~start_s:(s -. tr.t0) ~dur_s:(e -. s);
    v

(* Totals over every span called [name]: (seconds, work units, words). *)
let totals tr name =
  List.fold_left
    (fun ((d, w, m) as acc) ev ->
      match ev with
      | Event.Span { name = n; dur_s; args; _ } when n = name ->
        let work = match List.assoc_opt "work" args with Some (Event.I i) -> i | _ -> 0 in
        let words = match List.assoc_opt "words" args with Some (Event.F f) -> f | _ -> 0.0 in
        (d +. dur_s, w + work, m +. words)
      | _ -> acc)
    (0.0, 0, 0.0) (Sink.events tr.sink)

(* Raises when the sink's ring evicted spans: totals over what is left
   would be wrong, and the first span recorded (the set-up's) goes first. *)
let per_unit tr name =
  if Sink.dropped tr.sink > 0 then
    failwith (Printf.sprintf "the trace sink dropped %d spans" (Sink.dropped tr.sink));
  let d, w, m = totals tr name in
  if w = 0 then invalid_arg ("Measure.per_unit: no span " ^ name);
  (d /. float_of_int w, m /. float_of_int w)
