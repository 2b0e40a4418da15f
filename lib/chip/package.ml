type t = {
  die_mm2 : float;
  hbm_stacks : int;
  interposer_mm2 : float;
  assembly_yield : float;
  module_test_yield : float;
}

let hbm_stack_mm2 = 110.0 (* 11 x 10 mm shadow per stack *)

let hnlpu =
  {
    die_mm2 = 827.08;
    hbm_stacks = 8;
    (* Die + 8 stacks + routing keep-out; ~2.4x reticle, the class of
       interposer CoWoS ships today. *)
    interposer_mm2 = 2000.0;
    assembly_yield = 0.97;
    module_test_yield = 0.995;
  }

let system_yield_kgm t ~modules =
  if modules <= 0 then invalid_arg "Package.system_yield_kgm";
  (* Modules are screened before integration; only board-level assembly of
     known-good modules remains, ~0.999 per module slot. *)
  ignore t;
  0.999 ** float_of_int modules

let system_yield_untested t ~die_yield ~modules =
  if modules <= 0 then invalid_arg "Package.system_yield_untested";
  if die_yield <= 0.0 || die_yield > 1.0 then
    invalid_arg "Package.system_yield_untested: die_yield in (0,1]";
  (die_yield *. t.assembly_yield) ** float_of_int modules

let kgm_advantage t ~die_yield ~modules =
  system_yield_kgm t ~modules /. system_yield_untested t ~die_yield ~modules

let module_cost_usd t =
  let tech = Hnlpu_gates.Tech.n5 in
  let die = Hnlpu_gates.Yield.cost_per_good_die tech ~die_area_mm2:t.die_mm2 in
  let cost ~hbm_per_gb ~assembly =
    die +. (float_of_int t.hbm_stacks *. 24.0 *. hbm_per_gb) +. assembly
  in
  (cost ~hbm_per_gb:10.0 ~assembly:111.0, cost ~hbm_per_gb:20.0 ~assembly:185.0)

let interposer_utilization t =
  (t.die_mm2 +. (float_of_int t.hbm_stacks *. hbm_stack_mm2)) /. t.interposer_mm2
