(* Fault localisation with backward WET slices — the paper's dynamic
   slicing application (§5.2, Table 9; the companion PLDI'04 paper).

   The program below computes statistics over a table, but one of its
   three accumulators is wrong. Slicing backward from the bad output
   isolates the handful of statements that could be responsible, while
   the slices of the good outputs don't contain the buggy line.

     dune exec examples/slicing_debug.exe *)

module W = Wet_core.Wet
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Instr = Wet_ir.Instr

let source =
  {|
global data[32];

fn main() {
  // fill with a deterministic ramp
  var i = 0;
  while (i < 32) {
    data[i] = (i * 7) % 13;
    i = i + 1;
  }

  var total = 0;
  var evens = 0;
  var peak = 0;
  var j = 0;
  while (j < 32) {
    var v = data[j];
    total = total + v;
    if (v % 2 == 0) {
      evens = evens + 1;
    }
    if (v > peak) {
      peak = v + 1;        // BUG: records peak + 1, not the peak
    }
    j = j + 1;
  }
  print(total);   // output 0: correct
  print(evens);   // output 1: correct
  print(peak);    // output 2: wrong!
}
|}

let () =
  let program = Wet_minic.Frontend.compile_exn source in
  let out = Wet_interp.Interp.outputs_only program ~input:[||] in
  Printf.printf "outputs: total=%d evens=%d peak=%d (true peak is %d)\n\n"
    out.(0) out.(1) out.(2) (out.(2) - 1);

  let wet = Wet_core.Builder.run_streaming ~program ~input:[||] () in
  let sess = Wet_core.Wet.open_session wet in

  (* Output statements in source order. *)
  let outputs =
    Query.copies_matching wet (function Instr.Output _ -> true | _ -> false)
    |> List.sort (fun a b -> compare wet.W.copy_stmt.(a) wet.W.copy_stmt.(b))
  in

  (* For each output, slice backward and look at which *arithmetic*
     statements the value depends on. The wrong output is the only one
     whose slice contains the buggy "+ 1" after the comparison. *)
  List.iteri
    (fun k out_copy ->
      let adds = Hashtbl.create 16 in
      let r =
        Slice.Session.backward sess out_copy 0 ~f:(fun c _ ->
            match W.instr_of_copy wet c with
            | Instr.Binop (Instr.Add, _, _, _) | Instr.Binop (Instr.Rem, _, _, _)
            | Instr.Cmp _ ->
              Hashtbl.replace adds wet.W.copy_stmt.(c) (W.instr_of_copy wet c)
            | _ -> ())
      in
      Printf.printf "slice of output %d: %d instances, %d static statements\n"
        k r.Slice.instances r.Slice.stmts;
      let stmts =
        Hashtbl.fold (fun s i acc -> (s, i) :: acc) adds []
        |> List.sort compare
      in
      List.iter
        (fun (s, ins) ->
          Printf.printf "    stmt %-4d %s\n" s (Fmt.str "%a" Instr.pp ins))
        stmts;
      print_newline ())
    outputs;

  print_endline
    "The peak slice is the only one containing the increment that follows\n\
     the comparison (the injected bug); the total/evens slices exonerate it.\n\
     This is the query pattern the paper's Table 9 measures at scale."
