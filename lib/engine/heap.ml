(* Parallel-array binary min-heap: keys, sequence numbers and values live
   in three flat arrays, so the float keys stay unboxed ([float array] is
   flat in OCaml) and [push]/[pop] allocate nothing.  Sifting moves a hole
   instead of swapping, halving the number of array stores. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h value =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let keys = Array.make ncap 0. in
  let seqs = Array.make ncap 0 in
  (* [value] (the entry being pushed) seeds the fresh value array, so no
     placeholder element is ever needed. *)
  let vals = Array.make ncap value in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h value;
  (* Sift the hole up from the end; write the new entry once at the end. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let kp = h.keys.(parent) in
    if key < kp || (key = kp && seq < h.seqs.(parent)) then begin
      h.keys.(!i) <- kp;
      h.seqs.(!i) <- h.seqs.(parent);
      h.vals.(!i) <- h.vals.(parent);
      i := parent
    end
    else continue_ := false
  done;
  h.keys.(!i) <- key;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- value

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty heap";
  h.keys.(0)

let below_top h key = h.size = 0 || key < h.keys.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let v = h.vals.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Move the last entry into the root hole and sift it down. *)
    let key = h.keys.(n) and seq = h.seqs.(n) and value = h.vals.(n) in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let s =
          if
            r < n
            && (h.keys.(r) < h.keys.(l)
               || (h.keys.(r) = h.keys.(l) && h.seqs.(r) < h.seqs.(l)))
          then r
          else l
        in
        let ks = h.keys.(s) in
        if ks < key || (ks = key && h.seqs.(s) < seq) then begin
          h.keys.(!i) <- ks;
          h.seqs.(!i) <- h.seqs.(s);
          h.vals.(!i) <- h.vals.(s);
          i := s
        end
        else continue_ := false
      end
    done;
    h.keys.(!i) <- key;
    h.seqs.(!i) <- seq;
    h.vals.(!i) <- value
  end;
  v

let pop_min h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) and seq = h.seqs.(0) in
    let v = pop h in
    Some (key, seq, v)
  end

let peek_key h = if h.size = 0 then None else Some h.keys.(0)

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.vals <- [||];
  h.size <- 0
