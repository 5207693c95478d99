open Sasos_os

type variant = Plb | Page_group | Pk | Conv_asid | Conv_flush

let all =
  [
    ("plb", Plb);
    ("page-group", Page_group);
    ("pk", Pk);
    ("conv-asid", Conv_asid);
    ("conv-flush", Conv_flush);
  ]

(* The stable names joined for CLI/doc use — generated so a new machine
   cannot drift out of --help texts (a test greps README for each name). *)
let names_doc = String.concat ", " (List.map fst all)

let of_string s =
  List.assoc_opt (String.lowercase_ascii s) all

let to_string v = fst (List.find (fun (_, v') -> v' = v) all)

module Smp = Sasos_smp.Smp

let machine : variant -> (module System_intf.MACHINE) = function
  | Plb -> (module Plb_machine)
  | Page_group -> (module Pg_machine)
  | Pk -> (module Pk_machine)
  | Conv_asid -> (module Conv_machine.Asid)
  | Conv_flush -> (module Conv_machine.Flush)

let make_single variant config =
  let (module M) = machine variant in
  System_intf.Packed
    ((module M : System_intf.SYSTEM with type t = M.t), M.create config)

let smp variant ~cores ~purge ?ipi_budget config =
  let (module M) = machine variant in
  let module S = Smp.Make (M) in
  System_intf.Packed
    ( (module S : System_intf.SYSTEM with type t = S.t),
      S.create_with ~cores ~purge ?ipi_budget config )

(* When a collector is ambient, the machine comes back span-instrumented
   on it; otherwise it is returned unchanged, so a disabled run pays
   nothing. *)
let instrument packed =
  let obs = Sasos_obs.Obs.ambient () in
  if Sasos_obs.Obs.enabled obs then Obs_instrument.wrap_packed obs packed
  else packed

let make_smp variant ~cores ~purge ?ipi_budget config =
  instrument (smp variant ~cores ~purge ?ipi_budget config)

(* When --cores N > 1 every machine built through here is smp-lifted with
   the process-global policy; at 1 core the plain machine is returned
   unchanged, bit-identical to a build without the smp layer. *)
let make variant config =
  instrument
    (if Smp.cores () > 1 then
       smp variant ~cores:(Smp.cores ()) ~purge:(Smp.purge ()) config
     else make_single variant config)

let make_all config = List.map (fun (_, v) -> make v config) all
let sas_pair config = (make Plb config, make Page_group config)
