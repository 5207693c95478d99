type t = {
  cache_hit : int;
  cache_miss : int;
  l2_hit : int;
  cache_writeback : int;
  cache_line_flush : int;
  tlb_refill : int;
  plb_refill : int;
  pg_refill : int;
  kernel_trap : int;
  page_in : int;
  page_out : int;
  purge_per_entry : int;
  domain_switch : int;
  pd_id_write : int;
  key_reg_write : int;
  pg_sequential_penalty : int;
  table_op : int;
  ipi_send : int;
  ipi_deliver : int;
  ipi_ack : int;
  stale_trap : int;
}

let default =
  {
    cache_hit = 1;
    cache_miss = 20;
    l2_hit = 8;
    cache_writeback = 10;
    cache_line_flush = 2;
    tlb_refill = 40;
    plb_refill = 30;
    pg_refill = 25;
    kernel_trap = 100;
    page_in = 100_000;
    page_out = 100_000;
    purge_per_entry = 1;
    domain_switch = 10;
    pd_id_write = 1;
    key_reg_write = 1;
    pg_sequential_penalty = 0;
    table_op = 5;
    ipi_send = 30;
    ipi_deliver = 80;
    ipi_ack = 40;
    stale_trap = 120;
  }

let v ?(cache_hit = default.cache_hit) ?(cache_miss = default.cache_miss)
    ?(l2_hit = default.l2_hit)
    ?(cache_writeback = default.cache_writeback)
    ?(cache_line_flush = default.cache_line_flush)
    ?(tlb_refill = default.tlb_refill) ?(plb_refill = default.plb_refill)
    ?(pg_refill = default.pg_refill) ?(kernel_trap = default.kernel_trap)
    ?(page_in = default.page_in) ?(page_out = default.page_out)
    ?(purge_per_entry = default.purge_per_entry)
    ?(domain_switch = default.domain_switch)
    ?(pd_id_write = default.pd_id_write)
    ?(key_reg_write = default.key_reg_write)
    ?(pg_sequential_penalty = default.pg_sequential_penalty)
    ?(table_op = default.table_op) ?(ipi_send = default.ipi_send)
    ?(ipi_deliver = default.ipi_deliver) ?(ipi_ack = default.ipi_ack)
    ?(stale_trap = default.stale_trap) () =
  {
    cache_hit;
    cache_miss;
    l2_hit;
    cache_writeback;
    cache_line_flush;
    tlb_refill;
    plb_refill;
    pg_refill;
    kernel_trap;
    page_in;
    page_out;
    purge_per_entry;
    domain_switch;
    pd_id_write;
    key_reg_write;
    pg_sequential_penalty;
    table_op;
    ipi_send;
    ipi_deliver;
    ipi_ack;
    stale_trap;
  }
