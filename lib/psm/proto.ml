open Psm_import

type Wire.ctrl +=
  | Rts of {
      tag : int64;
      msg_id : int;
      msg_len : int;
      src_rank : int;
    }
  | Cts of {
      msg_id : int;
      offset : int;
      win_len : int;
      tid_base : int;
      xfer_len : int;
      dst_rank : int;
    }

let ctrl_bytes = 32
