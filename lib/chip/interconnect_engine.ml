open Hnlpu_noc

let links_per_chip = Topology.degree 0

let area_mm2 = 37.92

let power_w =
  float_of_int links_per_chip
  *. Link.cxl3.Link.bandwidth_bytes_per_s *. 8.0 *. Link.cxl3.Link.pj_per_bit *. 1e-12
