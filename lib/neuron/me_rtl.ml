open Hnlpu_fp4

type cycle_state = {
  cycle : int;
  plane_in : int option;
  region_counts : int array array;
  plane_sums : int array;
  accumulators : int array;
  planes_folded : int;
}

(* The routing (input -> region) is the weight code itself, so the machine
   is its GEMV once the bank's capacity check has passed. *)
type t = Gemv.t

let regions = Bank.regions

let make ?slack g = ignore (Bank.of_gemv ?slack g : Bank.t); g

let total_cycles (t : t) = t.Gemv.act_bits + 3

let partial_reference (g : Gemv.t) x ~planes =
  let bits = g.Gemv.act_bits in
  if planes < 0 || planes > bits then invalid_arg "Me_rtl.partial_reference";
  let ps = Bitserial.planes ~bits x in
  Array.init g.Gemv.out_features (fun o ->
      let acc = ref 0 in
      for b = 0 to planes - 1 do
        let pw = Bitserial.plane_weight ~bits b in
        for i = 0 to g.Gemv.in_features - 1 do
          if Bitserial.plane_get ps.(b) i = 1 then
            acc := !acc + (pw * Fp4.to_half_units (Gemv.code g o i))
        done
      done;
      !acc)

let run (g : t) x =
  Gemv.check_activations ~caller:"Me_rtl.run" g x;
  let bits = g.Gemv.act_bits in
  let m = g.Gemv.out_features in
  let planes = Bitserial.planes ~bits x in
  (* Pipeline registers, with the plane index each stage is carrying
     (None = bubble). *)
  let des : int option ref = ref None in
  let popcnt = Array.make_matrix m regions 0 in
  let popcnt_plane : int option ref = ref None in
  let plane_sum = Array.make m 0 in
  let plane_sum_plane : int option ref = ref None in
  let acc = Array.make m 0 in
  let folded = ref 0 in
  let trace = ref [] in
  for cycle = 0 to total_cycles g - 1 do
    (* Stage 4: accumulator folds the registered plane sum. *)
    (match !plane_sum_plane with
    | Some p ->
      let pw = Bitserial.plane_weight ~bits p in
      for o = 0 to m - 1 do
        acc.(o) <- acc.(o) + (pw * plane_sum.(o))
      done;
      incr folded
    | None -> ());
    (* Stage 3: multiply-by-constant + 16-way tree over the counts. *)
    (match !popcnt_plane with
    | Some p ->
      for o = 0 to m - 1 do
        let s = ref 0 in
        for c = 0 to regions - 1 do
          s := !s + (E2m1.half_units.(c) * popcnt.(o).(c))
        done;
        plane_sum.(o) <- !s
      done;
      plane_sum_plane := Some p
    | None -> plane_sum_plane := None);
    (* Stage 2: POPCNT of the wires the DES is driving. *)
    (match !des with
    | Some p ->
      for o = 0 to m - 1 do
        Array.fill popcnt.(o) 0 regions 0
      done;
      for o = 0 to m - 1 do
        for i = 0 to g.Gemv.in_features - 1 do
          if Bitserial.plane_get planes.(p) i = 1 then begin
            let c = Fp4.code (Gemv.code g o i) in
            popcnt.(o).(c) <- popcnt.(o).(c) + 1
          end
        done
      done;
      popcnt_plane := Some p
    | None -> popcnt_plane := None);
    (* Stage 1: DES presents the next plane. *)
    des := (if cycle < bits then Some cycle else None);
    trace :=
      {
        cycle;
        plane_in = !des;
        region_counts = Array.map Array.copy popcnt;
        plane_sums = Array.copy plane_sum;
        accumulators = Array.copy acc;
        planes_folded = !folded;
      }
      :: !trace
  done;
  (List.rev !trace, Array.copy acc)
