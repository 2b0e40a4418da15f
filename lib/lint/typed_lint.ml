(* Typedtree lint rules: the four bug families PRs 2-6 found by hand,
   checked mechanically over the compiler's [.cmt] output.

   - ALLOC-HOT   allocating constructs inside the configured hot-path
                 set (closures, tuples, records, list cons/append,
                 escaping unboxed int64/int32/nativeint values, Printf/
                 Format, partial applications, allocating stdlib
                 calls).  Per-body and syntactic: it does not chase
                 calls, which is exactly what makes it cheap and
                 predictable; callees on a hot path belong in the hot
                 set themselves.
   - DET-SRC     nondeterminism sources: [Random.*] instead of the
                 seed-derived [Util.Rng], wall-clock/CPU-clock reads,
                 unordered [Hashtbl] iteration, polymorphic compare
                 instantiated at function-bearing types.
   - PAR-ESCAPE  mutable state captured and *written* inside a closure
                 passed to [Par.parallel_map/init/run_tasks] — the
                 shape of the PR 6 pool-copy bug.  Writes through an
                 index that depends on a closure-local binding (the task
                 index pattern) are allowed.
   - EXN-SWALLOW catch-all exception handlers that discard the
                 exception (the worker-loop bug class).

   [lint_structure] also returns the qualified path of every named
   binding, from which {!Lint} finds hot-path entries that name nothing.

   Nothing is suppressed here: every finding is reported, and one is
   excused only by an entry with a written reason in the committed
   baseline file (see {!Baseline}), which keeps it visible as Info. *)

open Typedtree
module D = Hnlpu_verify.Diagnostic

(* --- Small helpers ------------------------------------------------------ *)

let loc_string (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.Lexing.pos_fname
    loc.loc_start.Lexing.pos_lnum

(* Path components with dune's wrapper mangling undone, so
   [Hnlpu_par__Par.parallel_map] and [Hnlpu_par.Par.parallel_map] both
   read as [...; "Par"; "parallel_map"]. *)
let path_parts p =
  String.split_on_char '.' (Path.name p)
  |> List.concat_map (fun s -> String.split_on_char '.' (Cmt_scan.normalize_modname s))

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: rest -> last2 rest
  | [] -> None

let last1 parts = match List.rev parts with x :: _ -> Some x | [] -> None

(* Does [ty] (or a component of it) contain a function type?  Polymorphic
   compare on such a value raises at runtime — and whether it raises can
   depend on evaluation order.  Guarded against cyclic types. *)
let type_contains_arrow ty =
  let visited = ref [] in
  let rec go ty =
    let id = Types.get_id ty in
    if List.memq id !visited then false
    else begin
      visited := id :: !visited;
      match Types.get_desc ty with
      | Types.Tarrow _ -> true
      | Types.Ttuple l -> List.exists go l
      | Types.Tconstr (_, args, _) -> List.exists go args
      | Types.Tpoly (t, _) -> go t
      | _ -> false
    end
  in
  go ty

let first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

let is_function_type ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

let is_boxed_int_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
    Path.same p Predef.path_int64
    || Path.same p Predef.path_int32
    || Path.same p Predef.path_nativeint
    ||
    (* Unification can leave the abbreviation [Int64.t] in place. *)
    match last2 (path_parts p) with
    | Some (("Int64" | "Int32" | "Nativeint"), "t") -> true
    | _ -> false)
  | _ -> false

(* The declared type of the [i]-th parameter of an arrow type. *)
let rec nth_param ty i =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, rest, _) -> if i = 0 then Some a else nth_param rest (i - 1)
  | Types.Tpoly (t, _) -> nth_param t i
  | _ -> None

(* --- Attribute handling -------------------------------------------------- *)

let is_inline_attr (a : Parsetree.attribute) =
  match a.attr_name.txt with
  | "inline" | "ocaml.inline" -> (
    match a.attr_payload with
    | Parsetree.PStr
        [ { pstr_desc =
              Parsetree.Pstr_eval
                ({ pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident "never"; _ }; _ }, _);
            _ } ] -> false
    | _ -> true)
  | _ -> false

(* --- Stdlib knowledge ---------------------------------------------------- *)

(* Calls that allocate their result: flagged on hot paths.  Matching is
   on the last two path components, so [Stdlib.List.map] and a local
   [List.map] alias both match. *)
let allocating_calls =
  [
    ("Array", "make"); ("Array", "init"); ("Array", "map"); ("Array", "mapi");
    ("Array", "copy"); ("Array", "append"); ("Array", "sub");
    ("Array", "of_list"); ("Array", "to_list"); ("Array", "concat");
    ("Array", "make_matrix");
    ("List", "map"); ("List", "mapi"); ("List", "map2"); ("List", "init");
    ("List", "filter"); ("List", "filter_map"); ("List", "rev");
    ("List", "append"); ("List", "concat"); ("List", "concat_map");
    ("List", "sort"); ("List", "stable_sort"); ("List", "sort_uniq");
    ("List", "of_seq"); ("List", "to_seq"); ("List", "split");
    ("List", "combine");
    ("String", "make"); ("String", "init"); ("String", "concat");
    ("String", "sub"); ("String", "map"); ("String", "split_on_char");
    ("Bytes", "create"); ("Bytes", "make"); ("Bytes", "sub");
    ("Bytes", "to_string"); ("Bytes", "of_string");
    ("Buffer", "create"); ("Buffer", "contents");
    ("Queue", "create"); ("Queue", "push"); ("Queue", "add");
    ("Hashtbl", "create");
    ("Stdlib", "ref"); ("Stdlib", "@"); ("Stdlib", "^"); ("Stdlib", "^^");
  ]

let raise_like = [ "raise"; "raise_notrace"; "invalid_arg"; "failwith" ]

let is_par_combinator parts =
  (match last1 parts with
  | Some ("parallel_map" | "parallel_init" | "run_tasks") ->
    true
  | _ -> false)
  && List.exists (fun c -> String.equal c "Par") parts

(* --- Ident usage / capture analysis ------------------------------------- *)

(* All idents bound anywhere inside [e]: parameters, let/match/for
   bindings.  A flat over-approximation of scoping — ident stamps are
   unique, so an outer capture can never collide with an inner binding. *)
let bound_idents_of (e : expression) =
  let acc = ref [] in
  let add id = acc := id :: !acc in
  let pat_vars : type k. k general_pattern -> unit =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> add id
    | Tpat_alias (_, id, _) -> add id
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      Tast_iterator.pat =
        (fun sub p ->
          pat_vars p;
          super.Tast_iterator.pat sub p);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_function { param; _ } -> add param
          | Texp_for (id, _, _, _, _, _) -> add id
          | _ -> ());
          super.Tast_iterator.expr sub e);
    }
  in
  it.Tast_iterator.expr it e;
  !acc

let ident_used id (e : expression) =
  let found = ref false in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      Tast_iterator.expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id', _, _) when Ident.same id id' ->
            found := true
          | _ -> ());
          if not !found then super.Tast_iterator.expr sub e);
    }
  in
  it.Tast_iterator.expr it e;
  !found

(* The "root" a write lands on: a local ident, a module-level value, or
   something we cannot name (skipped — the lint is a heuristic and only
   flags what it can attribute). *)
type root = Local of Ident.t | Global of string | Opaque

let rec root_of (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Local id
  | Texp_ident (p, _, _) -> Global (Path.name p)
  | Texp_field (e, _, _) -> root_of e
  | _ -> Opaque

(* --- The walker ---------------------------------------------------------- *)

(* The hot context is recorded once, at the outermost hot binding:
   nested bindings of a hot binding inherit it, and the [base_*] depths
   let the rules measure "inside a function body / loop / inner function
   *relative to the hot entry point*" even when the hot binding is
   itself nested in colder code. *)
type hot_ctx = {
  kind : Lint_config.hot_kind;
  base_fun : int;    (* fun_depth when the hot binding was entered *)
  base_loop : int;   (* loop_depth at that point *)
  base_inner : int;  (* inner_funs at that point *)
}

type state = {
  config : Lint_config.t;
  modname : string;
  mutable scope_rev : string list;      (* enclosing binding names *)
  mutable hot : hot_ctx option;         (* innermost hot context, if any *)
  mutable fun_depth : int;              (* nesting depth of function bodies *)
  mutable loop_depth : int;             (* nesting depth of for/while bodies *)
  mutable inner_funs : int;             (* functions that are not part of a
                                           statically-allocated module-level
                                           curried chain *)
  mutable raise_depth : int;            (* inside a raise/invalid_arg arg? *)
  mutable static_funs : expression list;  (* physically static closures *)
  mutable inline_ids : Ident.t list;    (* same-module [@inline] functions *)
  mutable inline_funs : expression list;  (* their curried chains *)
  mutable fresh : Ident.t list;         (* locals holding an unboxed int64 *)
  mutable diags : D.t list;
  mutable defined : string list;        (* qualified path of every named binding *)
}

let subject st =
  String.concat "." (st.modname :: List.rev st.scope_rev)

let emit st ~rule ~severity ~loc fmt =
  Printf.ksprintf
    (fun msg ->
      st.diags <-
        D.make ~rule ~severity ~subject:(subject st) "%s (%s)" msg
          (loc_string loc)
        :: st.diags)
    fmt

(* The [fun] nodes of the curried [fun a -> fun b -> ...] chain rooted
   at [e]. *)
let rec chain_funs e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    e :: chain_funs c_rhs
  | Texp_function _ -> [ e ]
  | Texp_let (_, _, body) ->
    (* Optional arguments with defaults desugar to a [let] between the
       curried [fun] nodes — keep following the chain through it. *)
    chain_funs body
  | _ -> []

(* Mark the chain rooted at [e] as non-allocating (either statically
   allocated at the module level, or already accounted for by an
   enclosing flag). *)
let mark_chain st e = st.static_funs <- chain_funs e @ st.static_funs

let is_inline_binding (vb : value_binding) =
  List.exists is_inline_attr vb.vb_attributes
  || List.exists is_inline_attr vb.vb_expr.exp_attributes

let mark_children_of_chain st e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } -> mark_chain st c_rhs
  | _ -> ()

(* --- EXN-SWALLOW --------------------------------------------------------- *)

(* A handler pattern that catches everything; returns the display name
   when the caught exception is then discarded. *)
let rec swallowing_pattern (p : value general_pattern) (body : expression) =
  match p.pat_desc with
  | Tpat_any -> Some "_"
  | Tpat_var (id, _) ->
    if ident_used id body then None else Some (Ident.name id)
  | Tpat_alias (inner, id, _) ->
    if ident_used id body then None else swallowing_pattern inner body
  | Tpat_or (a, b, _) -> (
    match swallowing_pattern a body with
    | Some n -> Some n
    | None -> swallowing_pattern b body)
  | _ -> None

let check_exn_case st (c : value case) =
  match swallowing_pattern c.c_lhs c.c_rhs with
  | Some name ->
    emit st ~rule:"EXN-SWALLOW" ~severity:D.Error ~loc:c.c_lhs.pat_loc
      "catch-all handler `with %s ->' discards the exception — name it \
       and re-raise unexpected cases, or match the specific exception"
      name
  | None -> ()

let exn_pats_of_computation (c : computation case) =
  let rec go (p : computation general_pattern) =
    match p.pat_desc with
    | Tpat_exception vp -> [ vp ]
    | Tpat_or (a, b, _) -> go a @ go b
    | _ -> []
  in
  go c.c_lhs

(* --- DET-SRC ------------------------------------------------------------- *)

let poly_compare_names =
  [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

let det_check_ident st (e : expression) parts =
  let pair = last2 parts in
  match pair with
  | Some ("Random", fn) when List.exists (String.equal "Stdlib") parts ->
    emit st ~rule:"DET-SRC" ~severity:D.Error ~loc:e.exp_loc
      "Random.%s draws from global mutable state and is not derived from \
       the workload seed — use Util.Rng (create/derive) instead"
      fn
  | Some ("Sys", "time") ->
    emit st ~rule:"DET-SRC" ~severity:D.Error ~loc:e.exp_loc
      "Sys.time reads the process clock; results that depend on it are \
       not reproducible — thread simulated time instead"
  | Some ("Unix", ("gettimeofday" | "time" | "times")) ->
    emit st ~rule:"DET-SRC" ~severity:D.Error ~loc:e.exp_loc
      "wall-clock read; results that depend on it are not reproducible — \
       thread simulated time instead"
  | Some ("Hashtbl", ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values"))
    ->
    emit st ~rule:"DET-SRC" ~severity:D.Warning ~loc:e.exp_loc
      "Hashtbl %s order is unspecified — make the consumer \
       order-insensitive (e.g. collect keys and sort) or switch to a \
       sorted structure"
      (match pair with Some (_, fn) -> fn | None -> "")
  | Some ("Hashtbl", "hash") -> (
    match first_arg_type e.exp_type with
    | Some ty when type_contains_arrow ty ->
      emit st ~rule:"DET-SRC" ~severity:D.Error ~loc:e.exp_loc
        "Hashtbl.hash on a function-bearing type hashes a code pointer — \
         value identity is not stable across runs"
    | _ -> ())
  | Some ("Stdlib", fn) when List.exists (String.equal fn) poly_compare_names -> (
    match first_arg_type e.exp_type with
    | Some ty when type_contains_arrow ty ->
      emit st ~rule:"DET-SRC" ~severity:D.Error ~loc:e.exp_loc
        "polymorphic %s instantiated at a function-bearing type raises \
         Invalid_argument at runtime — compare on a projection instead"
        fn
    | _ -> ())
  | _ -> ()

(* --- ALLOC-HOT ----------------------------------------------------------- *)

(* How hot is an allocation at the current point?

   - [`Hot]: per-event.  In a [Leaf] context, anywhere inside the
     function body; in a [Driver] context, inside a loop body or an
     inner function reached from the driver (the per-event handlers).
   - [`Setup]: in a [Driver]'s straight-line prologue — runs once per
     call into the driver, so it is reported as Info, not gated.
   - [`Cold]: not on a hot path (or inside a raise argument, which is
     cold by intent: the exception and its message may allocate). *)
let alloc_context st =
  match st.hot with
  | None -> `Cold
  | Some _ when st.raise_depth > 0 -> `Cold
  | Some ctx when st.fun_depth <= ctx.base_fun -> `Cold
  | Some { kind = Lint_config.Leaf; _ } -> `Hot
  | Some ({ kind = Lint_config.Driver; _ } as ctx) ->
    if st.loop_depth > ctx.base_loop || st.inner_funs > ctx.base_inner then `Hot
    else `Setup

let alloc st ~loc fmt =
  Printf.ksprintf
    (fun what ->
      match alloc_context st with
      | `Cold -> ()
      | `Hot ->
        emit st ~rule:"ALLOC-HOT" ~severity:D.Error ~loc
          "%s on a hot path — every minor-heap word here is a \
           stop-the-world synchronization point under the domain pool; \
           preallocate, or baseline it with a reason if this allocation \
           is genuinely cold"
          what
      | `Setup ->
        emit st ~rule:"ALLOC-HOT" ~severity:D.Info ~loc
          "%s in the hot driver's setup prologue — runs once per call, \
           fine as long as it stays out of the per-event loop"
          what)
    fmt

(* Boxed integers.  ocamlopt keeps an int64 (int32, nativeint) unboxed
   from the primitive that produces it to the primitive that consumes
   it, across [let]s, and boxes it only where it escapes: when it is
   returned from a function that is not inlined, passed to a call that
   is not an unboxing primitive or a same-module [@inline] function,
   stored into a mutable field, an array or a ref (a new block is
   flagged as an allocation anyway), or captured by a closure.  Producers are [%]-primitives and [[@unboxed]] externals
   with an int64 result, same-module [@inline] calls, and locals bound
   to one of these ("fresh" values); a parameter or a field read is
   already boxed and costs nothing more where it goes.  Any other call
   with an int64 result allocates its box in the callee. *)

type callee =
  | Prim of Primitive.description * Types.type_expr  (* declared type *)
  | Inline
  | Call of string

let callee st (f : expression) =
  match f.exp_desc with
  | Texp_ident (p, _, vd) -> (
    match vd.Types.val_kind with
    | Types.Val_prim d -> Prim (d, vd.Types.val_type)
    | _ ->
      match p with
      | Path.Pident id when List.exists (Ident.same id) st.inline_ids -> Inline
      | _ -> Call (Path.name p))
  | _ -> Call "a computed function"

let is_compiler_prim (d : Primitive.description) =
  String.length d.prim_name > 0 && d.prim_name.[0] = '%'

(* Polymorphic comparisons are specialized to unboxed integer compares
   at int64/int32/nativeint. *)
let comparison_prims =
  [ "%equal"; "%notequal"; "%lessthan"; "%greaterthan"; "%lessequal";
    "%greaterequal"; "%compare" ]

(* Does primitive [d], declared at [ty], take argument [i] unboxed?  A
   [%]-primitive does when that parameter is declared int64 (a type
   variable, as in [Array.set] or [ref], means a stored pointer); a C
   external only with [[@unboxed]]. *)
let prim_unboxes_arg (d : Primitive.description) ty i =
  if is_compiler_prim d then
    List.exists (String.equal d.prim_name) comparison_prims
    || match nth_param ty i with Some a -> is_boxed_int_type a | None -> false
  else
    match List.nth_opt d.prim_native_repr_args i with
    | Some (Primitive.Unboxed_integer _) -> true
    | _ -> false

let prim_unboxed_result (d : Primitive.description) =
  is_compiler_prim d
  || match d.prim_native_repr_res with
     | Primitive.Unboxed_integer _ -> true
     | _ -> false

let rec fresh st (e : expression) =
  is_boxed_int_type e.exp_type
  &&
  match e.exp_desc with
  | Texp_apply (f, _) -> (
    match callee st f with
    | Prim (d, _) -> prim_unboxed_result d
    | Inline -> true
    | Call _ -> false)
  | Texp_ident (Path.Pident id, _, _) -> List.exists (Ident.same id) st.fresh
  | Texp_let (_, vbs, body) ->
    List.iter (bind_fresh st) vbs;
    fresh st body
  | Texp_sequence (_, body) -> fresh st body
  | Texp_ifthenelse (_, a, Some b) -> fresh st a || fresh st b
  | Texp_match (_, cases, _) ->
    List.exists (fun (c : computation case) -> fresh st c.c_rhs) cases
  | _ -> false

and bind_fresh st (vb : value_binding) =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) when fresh st vb.vb_expr -> st.fresh <- id :: st.fresh
  | _ -> ()

let boxed_int_escape st ~loc fmt =
  Printf.ksprintf
    (fun where ->
      alloc st ~loc "an unboxed int64/int32/nativeint is boxed where it is %s" where)
    fmt

let boxed_int_check_apply st (e : expression) funct args =
  let c = callee st funct in
  List.iteri
    (fun i (_, a) ->
      match a with
      | Some a when fresh st a -> (
        match c with
        | Prim (d, ty) when prim_unboxes_arg d ty i -> ()
        | Inline -> ()
        | Prim (d, _) ->
          boxed_int_escape st ~loc:a.exp_loc "passed to primitive %s" d.prim_name
        | Call name ->
          boxed_int_escape st ~loc:a.exp_loc "passed to the non-inlined %s" name)
      | _ -> ())
    args;
  if is_boxed_int_type e.exp_type then
    match c with
    | Call name ->
      alloc st ~loc:e.exp_loc "call to %s returns a boxed int64/int32/nativeint" name
    | Prim (d, _) when not (prim_unboxed_result d) ->
      alloc st ~loc:e.exp_loc "external %s returns a boxed int64/int32/nativeint"
        d.prim_name
    | Prim _ | Inline -> ()

(* Fresh int64 locals mentioned inside closure [e] live in its
   environment, boxed. *)
let boxed_int_check_captured st (e : expression) =
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      Tast_iterator.expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when List.exists (Ident.same id) st.fresh ->
            boxed_int_escape st ~loc:x.exp_loc "captured by a closure (%s)"
              (Ident.name id)
          | _ -> ());
          super.Tast_iterator.expr sub x);
    }
  in
  super.Tast_iterator.expr it e

let boxed_int_check_returned st (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } when not (List.memq e st.inline_funs) ->
    List.iter
      (fun (c : value case) ->
        if fresh st c.c_rhs then
          boxed_int_escape st ~loc:c.c_rhs.exp_loc
            "returned from a function that is not [@inline]")
      cases
  | _ -> ()

let alloc_check_apply st (e : expression) funct args =
  match funct.exp_desc with
  | Texp_ident (p, _, _) -> (
    let parts = path_parts p in
    match last1 parts with
    | Some fn when List.exists (String.equal fn) raise_like -> ()
    | _ ->
      if List.exists (fun c -> String.equal c "Printf" || String.equal c "Format") parts
      then alloc st ~loc:e.exp_loc "Printf/Format formatting (allocates its result and closures)"
      else
        let known =
          match last2 parts with
          | Some pair ->
            List.exists
              (fun (m, f) -> String.equal m (fst pair) && String.equal f (snd pair))
              allocating_calls
          | None -> false
        in
        if known then
          alloc st ~loc:e.exp_loc "allocating call %s" (Path.name p)
        else if is_function_type e.exp_type then
          alloc st ~loc:e.exp_loc
            "partial application of %s (allocates a closure per call)"
            (Path.name p)
        else boxed_int_check_apply st e funct args)
  | _ ->
    (* Application of a computed function: still catch visible partial
       application. *)
    if is_function_type e.exp_type then
      alloc st ~loc:e.exp_loc "partial application (allocates a closure per call)"
    else boxed_int_check_apply st e funct args

(* --- PAR-ESCAPE ---------------------------------------------------------- *)

let par_escape_check st (closure : expression) =
  let bound = bound_idents_of closure in
  let is_bound id = List.exists (Ident.same id) bound in
  let captured = function
    | Local id -> not (is_bound id)
    | Global _ -> true
    | Opaque -> false
  in
  let describe = function
    | Local id -> Ident.name id
    | Global name -> name
    | Opaque -> "<expr>"
  in
  let index_mentions_binding idx =
    let found = ref false in
    let super = Tast_iterator.default_iterator in
    let it =
      {
        super with
        Tast_iterator.expr =
          (fun sub e ->
            (match e.exp_desc with
            | Texp_ident (Path.Pident id, _, _) when is_bound id -> found := true
            | _ -> ());
            if not !found then super.Tast_iterator.expr sub e);
      }
    in
    it.Tast_iterator.expr it idx;
    !found
  in
  let nth_arg args n =
    let vals = List.filter_map (fun (_, a) -> a) args in
    List.nth_opt vals n
  in
  let check_write (e : expression) =
    match e.exp_desc with
    | Texp_setfield (target, _, lbl, _) ->
      let r = root_of target in
      if captured r then
        emit st ~rule:"PAR-ESCAPE" ~severity:D.Error ~loc:e.exp_loc
          "mutable field %s of captured %s is written inside a parallel \
           task — tasks race on it and the merge order is \
           scheduler-dependent; write into a per-task slot and reduce in \
           index order instead"
          lbl.Types.lbl_name (describe r)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let parts = path_parts p in
      match last2 parts with
      | Some ("Stdlib", ":=") | Some ("Stdlib", "incr") | Some ("Stdlib", "decr")
        -> (
        match nth_arg args 0 with
        | Some target ->
          let r = root_of target in
          if captured r then
            emit st ~rule:"PAR-ESCAPE" ~severity:D.Error ~loc:e.exp_loc
              "captured ref %s is mutated inside a parallel task — tasks \
               race on it; accumulate per task and reduce in index order"
              (describe r)
        | None -> ())
      | Some (("Array" | "Bytes" | "Float" | "Bigarray"), ("set" | "unsafe_set"))
        -> (
        match (nth_arg args 0, nth_arg args 1) with
        | Some target, Some idx ->
          let r = root_of target in
          if captured r && not (index_mentions_binding idx) then
            emit st ~rule:"PAR-ESCAPE" ~severity:D.Error ~loc:e.exp_loc
              "captured array %s is written at an index independent of \
               the task — concurrent tasks write the same slot; index by \
               the task parameter"
              (describe r)
        | _ -> ())
      | Some (("Hashtbl" | "Buffer" | "Queue" | "Stack") as m, fn)
        when List.exists (String.equal fn)
               [ "add"; "replace"; "remove"; "reset"; "clear"; "push"; "pop";
                 "take"; "add_string"; "add_char"; "add_bytes"; "add_buffer";
                 "add_substring"; "truncate"; "fill" ] -> (
        match nth_arg args 0 with
        | Some target ->
          let r = root_of target in
          if captured r then
            emit st ~rule:"PAR-ESCAPE" ~severity:D.Error ~loc:e.exp_loc
              "captured %s %s is mutated inside a parallel task — shared \
               structure writes race; use per-task instances merged in \
               index order"
              (String.lowercase_ascii m) (describe r)
        | None -> ())
      | _ -> ())
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      Tast_iterator.expr =
        (fun sub e ->
          check_write e;
          super.Tast_iterator.expr sub e);
    }
  in
  it.Tast_iterator.expr it closure

(* --- Main iterator ------------------------------------------------------- *)

let lint_structure ~config ~modname (str : structure) =
  let st =
    {
      config;
      modname;
      scope_rev = [];
      hot = None;
      fun_depth = 0;
      loop_depth = 0;
      inner_funs = 0;
      raise_depth = 0;
      static_funs = [];
      inline_ids = [];
      inline_funs = [];
      fresh = [];
      diags = [];
      defined = [];
    }
  in
  let super = Tast_iterator.default_iterator in
  let binding_name (vb : value_binding) =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> Some (Ident.name id)
    | Tpat_alias (_, id, _) -> Some (Ident.name id)
    | _ -> None
  in
  let value_binding sub (vb : value_binding) =
    let name = binding_name vb in
    (* Definitions precede their uses, so an [@inline] function is known
       before any call to it is checked. *)
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when is_inline_binding vb ->
      st.inline_ids <- id :: st.inline_ids;
      st.inline_funs <- chain_funs vb.vb_expr @ st.inline_funs
    | _ -> ());
    (match name with
    | Some n ->
      st.scope_rev <- n :: st.scope_rev;
      st.defined <- subject st :: st.defined
    | None -> ());
    (* Nested bindings of a hot binding inherit the outer hot context —
       only the outermost hot binding establishes the reference depths. *)
    let kind_here =
      match st.hot with
      | Some _ -> None
      | None -> Lint_config.hot_kind st.config (subject st)
    in
    let saved_hot = st.hot in
    (match kind_here with
    | Some kind ->
      st.hot <-
        Some
          {
            kind;
            base_fun = st.fun_depth;
            base_loop = st.loop_depth;
            base_inner = st.inner_funs;
          }
    | None -> ());
    super.Tast_iterator.value_binding sub vb;
    st.hot <- saved_hot;
    match name with Some _ -> st.scope_rev <- List.tl st.scope_rev | None -> ()
  in
  let structure_item sub (item : structure_item) =
    (match item.str_desc with
    | Tstr_value (_, vbs) ->
      (* Module-level functions are statically allocated: their curried
         chains never cost a per-call closure. *)
      List.iter (fun vb -> mark_chain st vb.vb_expr) vbs
    | _ -> ());
    match item.str_desc with
    | Tstr_module
        { mb_name = { txt = Some name; _ }; _ } ->
      st.scope_rev <- name :: st.scope_rev;
      super.Tast_iterator.structure_item sub item;
      st.scope_rev <- List.tl st.scope_rev
    | _ -> super.Tast_iterator.structure_item sub item
  in
  let expr sub (e : expression) =
    (* DET-SRC watches every resolved identifier occurrence. *)
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> det_check_ident st e (path_parts p)
    | _ -> ());
    (* EXN-SWALLOW: try handlers and match-exception cases. *)
    (match e.exp_desc with
    | Texp_try (_, cases) -> List.iter (check_exn_case st) cases
    | Texp_match (_, cases, _) ->
      List.iter
        (fun (c : computation case) ->
          List.iter
            (fun vp ->
              match swallowing_pattern vp c.c_rhs with
              | Some name ->
                emit st ~rule:"EXN-SWALLOW" ~severity:D.Error ~loc:vp.pat_loc
                  "catch-all `exception %s' case discards the exception — \
                   name it and re-raise unexpected cases"
                  name
              | None -> ())
            (exn_pats_of_computation c))
        cases
    | _ -> ());
    (* PAR-ESCAPE at combinator call sites. *)
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when is_par_combinator (path_parts p) ->
      List.iter
        (fun (_, argo) ->
          match argo with
          | Some ({ exp_desc = Texp_function _; _ } as closure) ->
            par_escape_check st closure
          | _ -> ())
        args
    | _ -> ());
    (* ALLOC-HOT inside hot function bodies. *)
    (match e.exp_desc with
    | Texp_let (_, vbs, _) -> List.iter (bind_fresh st) vbs
    | _ -> ());
    if alloc_context st <> `Cold then begin
      match e.exp_desc with
      | Texp_function _ when not (List.memq e st.static_funs) ->
        alloc st ~loc:e.exp_loc "closure allocated per call";
        boxed_int_check_captured st e
      | Texp_tuple parts ->
        alloc st ~loc:e.exp_loc "tuple allocation (%d words)"
          (List.length parts + 1)
      | Texp_construct (_, cd, args) when args <> [] ->
        if String.equal cd.Types.cstr_name "::" then
          alloc st ~loc:e.exp_loc "list cons allocation"
        else alloc st ~loc:e.exp_loc "constructor %s allocation" cd.Types.cstr_name
      | Texp_record _ -> alloc st ~loc:e.exp_loc "record allocation"
      | Texp_array _ -> alloc st ~loc:e.exp_loc "array literal allocation"
      | Texp_setfield (_, _, lbl, v) when fresh st v ->
        boxed_int_escape st ~loc:v.exp_loc "stored in field %s" lbl.Types.lbl_name
      | Texp_lazy _ -> alloc st ~loc:e.exp_loc "lazy thunk allocation"
      | Texp_apply (funct, args) -> alloc_check_apply st e funct args
      | _ -> ()
    end;
    (* Curried children of any closure are part of the same runtime
       closure chain: account for the chain once, at its root. *)
    (match e.exp_desc with
    | Texp_function _ -> mark_children_of_chain st e
    | _ -> ());
    (* Recurse, with function-body, loop-body and raise-argument
       context. *)
    match e.exp_desc with
    | Texp_function _ ->
      (* A function that is not part of a module-level curried chain is
         an inner function: in a hot driver, its body is per-event code
         (the event loop calls it), not setup. *)
      let inner = not (List.memq e st.static_funs) in
      st.fun_depth <- st.fun_depth + 1;
      if inner then st.inner_funs <- st.inner_funs + 1;
      super.Tast_iterator.expr sub e;
      (* Returns are checked after the body, whose [let]s bind the fresh
         locals a result may name. *)
      if alloc_context st <> `Cold then boxed_int_check_returned st e;
      if inner then st.inner_funs <- st.inner_funs - 1;
      st.fun_depth <- st.fun_depth - 1
    | Texp_while _ | Texp_for _ ->
      st.loop_depth <- st.loop_depth + 1;
      super.Tast_iterator.expr sub e;
      st.loop_depth <- st.loop_depth - 1
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
      when match last1 (path_parts p) with
           | Some fn -> List.exists (String.equal fn) raise_like
           | None -> false ->
      (* Arguments of raise/invalid_arg/failwith are cold by intent: the
         exception and its message may allocate. *)
      st.raise_depth <- st.raise_depth + 1;
      super.Tast_iterator.expr sub e;
      st.raise_depth <- st.raise_depth - 1
    | _ -> super.Tast_iterator.expr sub e
  in
  let it = { super with Tast_iterator.value_binding; structure_item; expr } in
  it.Tast_iterator.structure it str;
  (List.rev st.diags, st.defined)
