type litho_class = Euv_se | Duv_saqp | Duv_sadp | Duv_lele | Duv_se

type region = Feol | Beol_local | Beol_embedding | Beol_top

type layer = {
  layer_name : string;
  region : region;
  litho : litho_class;
  embedding : bool;
}

let cost_units = function
  | Euv_se -> 6.0
  | Duv_saqp | Duv_sadp | Duv_lele | Duv_se -> 1.0

let l name region litho = { layer_name = name; region; litho; embedding = false }

let e name litho = { layer_name = name; region = Beol_embedding; litho; embedding = true }

(* Figure 8's accounting: the homogeneous prefab is 40 DUV + 12 EUV reticles
   (FEOL devices/contacts and local interconnect M0–M7), the embedding
   window M8–M11 is 10 DUV reticles, and the top stack M12+ adds 8 DUV —
   70 reticles, 130 normalized DUV units in total. *)
let n5_stack =
  (* FEOL: 32 reticles (8 EUV critical + 24 DUV), devices and contacts. *)
  let feol =
    [
      l "WELL" Feol Duv_se;
      l "FIN-MANDREL" Feol Euv_se;
      l "FIN-CUT1" Feol Euv_se;
      l "FIN-CUT2" Feol Duv_lele;
      l "DIFF" Feol Duv_lele;
      l "VTN" Feol Duv_se;
      l "VTP" Feol Duv_se;
      l "VTN-LOW" Feol Duv_se;
      l "VTP-LOW" Feol Duv_se;
      l "POLY" Feol Euv_se;
      l "POLY-CUT1" Feol Euv_se;
      l "POLY-CUT2" Feol Duv_lele;
      l "SDB" Feol Duv_lele;
      l "NSD" Feol Duv_se;
      l "PSD" Feol Duv_se;
      l "EPI-N" Feol Duv_se;
      l "EPI-P" Feol Duv_se;
      l "TS" Feol Duv_sadp;
      l "CT-GATE" Feol Euv_se;
      l "CT-DIFF1" Feol Euv_se;
      l "CT-DIFF2" Feol Duv_lele;
      l "CT-STRAP" Feol Duv_lele;
      l "GATE-OPEN" Feol Duv_se;
      l "SALICIDE" Feol Duv_se;
      l "RESISTOR" Feol Duv_se;
      l "CAP-MOM" Feol Duv_se;
      l "ESD" Feol Duv_se;
      l "M0-MANDREL" Feol Euv_se;
      l "M0-CUT" Feol Euv_se;
      l "V0-A" Feol Duv_lele;
      l "V0-B" Feol Duv_lele;
      l "IMPLANT-LDD" Feol Duv_se;
    ]
  in
  (* Local interconnect M1–M7: 20 reticles (4 EUV for M1–M2 critical
     patterning + 16 DUV for M3–M7 SADP and vias). *)
  let local =
    [
      l "M1-MANDREL" Beol_local Euv_se;
      l "M1-CUT" Beol_local Euv_se;
      l "V1" Beol_local Duv_lele;
      l "M2-MANDREL" Beol_local Euv_se;
      l "M2-CUT" Beol_local Euv_se;
      l "V2" Beol_local Duv_lele;
      l "M3-MANDREL" Beol_local Duv_saqp;
      l "M3-CUT" Beol_local Duv_saqp;
      l "V3" Beol_local Duv_lele;
      l "M4-MANDREL" Beol_local Duv_sadp;
      l "M4-CUT" Beol_local Duv_sadp;
      l "V4" Beol_local Duv_lele;
      l "M5-MANDREL" Beol_local Duv_sadp;
      l "M5-CUT" Beol_local Duv_sadp;
      l "V5" Beol_local Duv_lele;
      l "M6-MANDREL" Beol_local Duv_sadp;
      l "M6-CUT" Beol_local Duv_sadp;
      l "V6" Beol_local Duv_lele;
      l "M7-MANDREL" Beol_local Duv_sadp;
      l "M7-CUT" Beol_local Duv_sadp;
    ]
  in
  (* The Metal-Embedding window (paper Appendix B note 3): exactly these
     10 DUV reticles are re-made per chip and per weight update. *)
  let embedding =
    [
      e "VIA7" Duv_se;
      e "M8-MANDREL" Duv_sadp;
      e "M8-CUT" Duv_sadp;
      e "VIA8" Duv_se;
      e "M9-MANDREL" Duv_sadp;
      e "M9-CUT" Duv_sadp;
      e "VIA9" Duv_se;
      e "M10" Duv_se;
      e "VIA10" Duv_se;
      e "M11" Duv_se;
    ]
  in
  (* Power delivery, clock spines and IO: 8 reticles, all cheap DUV
     (Figure 8: "BEOL M12+ Power, Peripheral: 8 DUV, homogeneous"). *)
  let top =
    [
      l "VIA11" Beol_top Duv_se;
      l "M12" Beol_top Duv_se;
      l "VIA12" Beol_top Duv_se;
      l "M13" Beol_top Duv_se;
      l "VIA13" Beol_top Duv_se;
      l "TM0" Beol_top Duv_se;
      l "RDL" Beol_top Duv_se;
      l "PASSIVATION" Beol_top Duv_se;
    ]
  in
  feol @ local @ embedding @ top

let total_layers stack = List.length stack

let euv_layers stack =
  List.length (List.filter (fun x -> x.litho = Euv_se) stack)

let total_units stack =
  List.fold_left (fun acc x -> acc +. cost_units x.litho) 0.0 stack

let embedding_units stack =
  List.fold_left
    (fun acc x -> if x.embedding then acc +. cost_units x.litho else acc)
    0.0 stack

let embedding_fraction stack = embedding_units stack /. total_units stack

let no_euv_in_embedding stack =
  List.for_all (fun x -> not (x.embedding && x.litho = Euv_se)) stack
