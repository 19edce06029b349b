(* Plain-arithmetic decoders for Wexp's exponent representations. *)

open Lbq_bignum

let to_exponent (t : Wexp.t) =
  if t.Wexp.first = 0 then Z.zero
  else begin
    let acc = ref (Z.of_int t.Wexp.first) in
    Wexp.iter t
      ~square:(fun n -> acc := Z.shift_left !acc n)
      ~multiply:(fun v -> acc := Z.add !acc (Z.of_int v));
    !acc
  end

let windows_to_exponent ws =
  Array.fold_left
    (fun acc (pos, v) -> Z.add acc (Z.shift_left (Z.of_int v) pos))
    Z.zero ws

let comb_to_exponent (c : Wexp.comb) (d : int array) =
  let acc = ref Z.zero in
  Array.iteri
    (fun j digit ->
      for i = 0 to c.Wexp.teeth - 1 do
        if (digit lsr i) land 1 = 1 then
          acc := Z.add !acc (Z.shift_left Z.one ((i * c.Wexp.cols) + j))
      done)
    d;
  !acc
