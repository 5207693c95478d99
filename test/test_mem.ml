open Sasos.Mem

let test_frame_alloc () =
  let f = Frame_allocator.create ~frames:3 in
  Alcotest.(check int) "total" 3 (Frame_allocator.total f);
  let a = Option.get (Frame_allocator.alloc f) in
  let b = Option.get (Frame_allocator.alloc f) in
  let c = Option.get (Frame_allocator.alloc f) in
  Alcotest.(check bool) "distinct" true (a <> b && b <> c && a <> c);
  Alcotest.(check (option int)) "exhausted" None (Frame_allocator.alloc f);
  Frame_allocator.free f b;
  Alcotest.(check int) "one free" 1 (Frame_allocator.free_count f);
  Alcotest.(check (option int)) "reuse" (Some b) (Frame_allocator.alloc f)

let test_frame_double_free () =
  let f = Frame_allocator.create ~frames:2 in
  let a = Option.get (Frame_allocator.alloc f) in
  Frame_allocator.free f a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_allocator.free: double free") (fun () ->
      Frame_allocator.free f a)

let test_ipt () =
  let t = Inverted_page_table.create () in
  Inverted_page_table.map t ~vpn:10 ~pfn:3;
  Alcotest.(check bool) "mapped" true (Inverted_page_table.is_mapped t ~vpn:10);
  (* single translation per page: re-mapping is a homonym, forbidden *)
  Alcotest.check_raises "remap"
    (Invalid_argument "Inverted_page_table.map: page already mapped")
    (fun () -> Inverted_page_table.map t ~vpn:10 ~pfn:4);
  (match Inverted_page_table.find t ~vpn:10 with
  | Some m ->
      Alcotest.(check int) "pfn" 3 m.Inverted_page_table.pfn
  | None -> Alcotest.fail "expected mapping");
  Inverted_page_table.set_dirty t ~vpn:10;
  let m = Inverted_page_table.unmap t ~vpn:10 in
  Alcotest.(check bool) "dirty preserved" true m.Inverted_page_table.dirty;
  Alcotest.(check bool) "unmapped" false (Inverted_page_table.is_mapped t ~vpn:10);
  Alcotest.(check bool) "unmap absent raises" true
    (try
       ignore (Inverted_page_table.unmap t ~vpn:10);
       false
     with Not_found -> true)

let test_backing_store () =
  let b = Backing_store.create () in
  Backing_store.write b ~vpn:1 ~bytes_used:4096;
  Backing_store.write b ~vpn:2 ~bytes_used:1000;
  Alcotest.(check int) "bytes" 5096 (Backing_store.bytes_used b);
  Backing_store.write b ~vpn:1 ~bytes_used:2000;
  Alcotest.(check int) "overwrite adjusts" 3000 (Backing_store.bytes_used b);
  Alcotest.(check (option int)) "read" (Some 2000) (Backing_store.read b ~vpn:1);
  Alcotest.(check bool) "read keeps copy" true (Backing_store.resident b ~vpn:1);
  Backing_store.drop b ~vpn:1;
  Alcotest.(check int) "dropped" 1000 (Backing_store.bytes_used b);
  Alcotest.(check (option int)) "gone" None (Backing_store.read b ~vpn:1)

let test_compressor () =
  let c = Compressor.create ~page_bytes:4096 () in
  let s1 = Compressor.compressed_size c 42 in
  let s2 = Compressor.compressed_size c 42 in
  Alcotest.(check int) "deterministic" s1 s2;
  Alcotest.(check bool) "within page" true (s1 >= 1 && s1 <= 4096);
  (* average should be near the mean ratio *)
  let total = ref 0 in
  let n = 500 in
  for vpn = 0 to n - 1 do
    total := !total + Compressor.compressed_size c vpn
  done;
  let avg = float_of_int !total /. float_of_int n /. 4096.0 in
  Alcotest.(check bool) "mean ratio ~0.4" true (avg > 0.3 && avg < 0.5)

let suite =
  [
    Alcotest.test_case "frame allocator" `Quick test_frame_alloc;
    Alcotest.test_case "double free rejected" `Quick test_frame_double_free;
    Alcotest.test_case "inverted page table" `Quick test_ipt;
    Alcotest.test_case "backing store" `Quick test_backing_store;
    Alcotest.test_case "compressor" `Quick test_compressor;
  ]
