(* DEAD-EXPORT: every exported value and every optional parameter earns
   its place.

   The rule reads each library interface ([.cmti]) and the typedtree
   ([.cmt]) of every reference unit — the libraries themselves, the CLI,
   the examples, the benchmark and the tests — and reports:

   - an exported [val] that no other unit references (Error);
   - an optional parameter of an exported function that no application
     anywhere passes, so the knob has exactly one value (Error).  A [?x]
     forwarded from another function counts as passing it;
   - an export or knob that only the tests use (Info).

   A reference is matched on its module name and value name: dune's
   [Lib__Module] mangling is undone, and [module X = ...] and
   [let module X = ...] aliases are followed.  That is exact because no
   two modules in the tree share a name.  An optional argument that an
   application leaves out appears in the typedtree as a ghost [None];
   anything else the caller wrote counts as passing it. *)

open Typedtree
module D = Hnlpu_verify.Diagnostic

type export = {
  unit_name : string;  (* "Hnlpu_util.Units" *)
  key : string * string;  (* ("Units", "seconds"): innermost module, value *)
  subject : string;  (* "Hnlpu_util.Units.seconds" *)
  optionals : string list;
  loc : Location.t;
}

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let rec optionals ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, rest, _) -> l :: optionals rest
  | Types.Tarrow (_, _, rest, _) | Types.Tpoly (rest, _) -> optionals rest
  | _ -> []

let exports_of_interface (i : Cmt_scan.interface) =
  let rec go prefix (sg : signature) =
    List.concat_map
      (fun (item : signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
          let name = vd.val_name.Location.txt in
          [
            {
              unit_name = i.Cmt_scan.imodname;
              key = (last_component prefix, name);
              subject = prefix ^ "." ^ name;
              optionals = optionals vd.val_val.Types.val_type;
              loc = vd.val_loc;
            };
          ]
        | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          go (prefix ^ "." ^ m) sg
        | _ -> [])
      sg.sig_items
  in
  go i.Cmt_scan.imodname i.Cmt_scan.signature

(* An optional argument the application left out: the ghost [None] the
   type checker fills in. *)
let elided (e : expression) =
  e.exp_loc.Location.loc_ghost
  && match e.exp_desc with Texp_construct (_, cd, []) -> cd.Types.cstr_name = "None" | _ -> false

(* Record, by referencing unit, every value a unit references in [values]
   and every optional argument it passes in [passes].  A unit references
   its own top-level bindings by plain identifiers. *)
let scan_unit ~values ~passes (src : Cmt_scan.source) =
  let unit_name = src.Cmt_scan.modname in
  let aliases = ref [] and toplevel = ref [] and modules = ref [ last_component unit_name ] in
  let assoc id l = List.find_map (fun (i, v) -> if Ident.same i id then Some v else None) l in
  let module_key : Path.t -> string option = function
    | Pident id -> (
      match assoc id !aliases with
      | Some k -> Some k
      | None -> Some (last_component (Cmt_scan.normalize_modname (Ident.name id))))
    | Pdot (_, m) -> Some m
    | _ -> None
  in
  let rec alias id (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (fun k -> aliases := (id, k) :: !aliases) (module_key p)
    | Tmod_constraint (me, _, _, _) -> alias id me
    | _ -> ()
  in
  let value_key : Path.t -> (string * string) option = function
    | Pdot (mp, v) -> Option.map (fun m -> (m, v)) (module_key mp)
    | Pident id -> assoc id !toplevel
    | _ -> None
  in
  let super = Tast_iterator.default_iterator in
  let structure_item sub (item : structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : value_binding) ->
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
            toplevel := (id, (List.hd !modules, Ident.name id)) :: !toplevel
          | _ -> ())
        vbs;
      super.Tast_iterator.structure_item sub item
    | Tstr_module { mb_id = Some id; mb_expr; _ } ->
      alias id mb_expr;
      modules := Ident.name id :: !modules;
      super.Tast_iterator.structure_item sub item;
      modules := List.tl !modules
    | _ -> super.Tast_iterator.structure_item sub item
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_letmodule (Some id, _, _, me, _) -> alias id me
    | Texp_ident (p, _, _) -> Option.iter (fun k -> Hashtbl.add values k unit_name) (value_key p)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
      Option.iter
        (fun (m, v) ->
          List.iter
            (function
              | Asttypes.Optional l, Some a when not (elided a) -> Hashtbl.add passes (m, v, l) unit_name
              | _ -> ())
            args)
        (value_key p)
    | _ -> ());
    super.Tast_iterator.expr sub e
  in
  let it = { super with Tast_iterator.structure_item; expr } in
  it.Tast_iterator.structure it src.Cmt_scan.structure

let check ~interfaces ~(units : Cmt_scan.source list) =
  let values = Hashtbl.create 4096 and passes = Hashtbl.create 256 in
  List.iter (scan_unit ~values ~passes) units;
  let is_test u =
    List.exists
      (fun (s : Cmt_scan.source) ->
        String.equal s.Cmt_scan.modname u && String.starts_with ~prefix:"test/" s.Cmt_scan.sourcefile)
      units
  in
  (* No users, the tests only, or real callers.  A test unit's use counts
     fully for an export that is itself test code (the lint fixtures). *)
  let grade (e : export) users =
    if users = [] then `Dead
    else if (not (is_test e.unit_name)) && List.for_all is_test users then `Tests
    else `Live
  in
  let finding (e : export) ~subject grade what =
    let at = Typed_lint.loc_string e.loc in
    match grade with
    | `Dead -> [ D.error ~rule:"DEAD-EXPORT" ~subject "%s (%s)" what at ]
    | `Tests -> [ D.info ~rule:"DEAD-EXPORT" ~subject "used by the tests only (%s)" at ]
    | `Live -> []
  in
  List.concat_map
    (fun (e : export) ->
      let others = List.filter (( <> ) e.unit_name) (Hashtbl.find_all values e.key) in
      match grade e others with
      | `Dead ->
        finding e ~subject:e.subject `Dead
          "exported, but no other unit references it — delete it from the interface"
      | g ->
        let m, v = e.key in
        finding e ~subject:e.subject g ""
        @ List.concat_map
            (fun l ->
              finding e ~subject:(e.subject ^ "?" ^ l)
                (grade e (Hashtbl.find_all passes (m, v, l)))
                (Printf.sprintf
                   "optional parameter ?%s is passed by no call, so it has one value — \
                    replace it with its default"
                   l))
            e.optionals)
    (List.concat_map exports_of_interface interfaces)
