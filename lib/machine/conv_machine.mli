(** The conventional multiple-address-space baseline of §3.1.

    Each protection domain is a classical process with its own address
    space. To run the same SASOS workloads, every shared segment is mapped
    at the same numeric virtual address in every space (the most favourable
    arrangement for the baseline) — what remains is precisely the cost the
    paper attributes to MAS architectures:

    - the TLB entry combines translation and protection, so a page shared
      by n domains occupies n TLB entries (ASID variant), and any change to
      its mapping must touch all of them;
    - protection changes are per-(space, page) TLB work;
    - the [Flush] variant has no ASID: every domain switch purges the whole
      TLB, and — because the data cache is virtually indexed and virtually
      tagged with no space tag — the entire cache too (the i860 regime).

    In the [Asid] variant the VIVT cache is space-tagged, which avoids
    homonyms but makes shared write-mapped pages create genuine synonyms;
    these are detected and counted ({!Sasos_hw.Data_cache.synonyms_detected}
    via the [cache_org] experiment). *)

module Asid : Sasos_os.System_intf.MACHINE
module Flush : Sasos_os.System_intf.MACHINE
