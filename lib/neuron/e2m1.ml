(* [half_units.(c)] is [Fp4.to_half_units (Fp4.of_code c)]: the machines
   read each weight byte through it in place of a per-MAC call, which is
   never inlined across modules under -opaque.  The module is private to
   this library, so nothing outside it can write the table. *)
let half_units = Array.init 16 (fun c -> Hnlpu_fp4.Fp4.to_half_units (Hnlpu_fp4.Fp4.of_code c))
