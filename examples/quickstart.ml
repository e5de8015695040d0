(* Quickstart: compile a MiniC program, run it under the tracing
   interpreter straight into the builder of its compressed Whole
   Execution Trace, and ask it the four kinds of questions from the
   paper (§2):
   control flow, values, dependences, and a WET slice.

     dune exec examples/quickstart.exe *)

module W = Wet_core.Wet
module Builder = Wet_core.Builder
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Sizes = Wet_core.Sizes

let source =
  {|
global squares[12];

fn square(x) { return x * x; }

fn main() {
  var i = 0;
  while (i < 12) {
    squares[i] = square(i);
    i = i + 1;
  }
  var sum = 0;
  for (var j = 0; j < 12; j = j + 1) { sum = sum + squares[j]; }
  print(sum);
}
|}

let () =
  (* 1. Compile and run with tracing. The interpreter stands in for the
     paper's simulator: no instrumentation touches the program. Its
     events go straight into the builder's sink, which applies tier-1
     structural compression shard by shard while the program runs, so
     the uncompressed trace never exists. *)
  let program = Wet_minic.Frontend.compile_exn source in
  let analysis = Wet_cfg.Program_analysis.of_program program in
  let sink = Builder.Sink.create analysis in
  let outputs, stmts =
    Wet_interp.Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink)
      program ~input:[||]
  in
  Printf.printf "program output: %d\n" outputs.(0);
  Printf.printf "statements executed: %d\n\n" stmts;

  (* 2. Finish the tier-1 WET, then pack every label stream with the
     bidirectional compressors (tier-2). *)
  let wet = Builder.pack (Builder.Sink.finish sink) in
  let orig = Sizes.original wet and comp = Sizes.current wet in
  Printf.printf "WET nodes (executed Ball-Larus paths): %d\n"
    (Array.length wet.W.nodes);
  Printf.printf "uncompressed WET: %.1f KB, compressed: %.1f KB (%.1fx)\n\n"
    (orig.Sizes.total_bytes /. 1024.)
    (comp.Sizes.total_bytes /. 1024.)
    (orig.Sizes.total_bytes /. comp.Sizes.total_bytes);

  (* 3. Open a session: the container is immutable, all cursor state
     lives in the session handle. Independent sessions over the same
     WET answer concurrently; here one is plenty. *)
  let s = W.open_session wet in

  (* Query: regenerate the start of the control-flow trace. *)
  Query.Session.park s Query.Forward;
  let shown = ref 0 in
  print_endline "first 10 block executions (from the compressed WET):";
  let total =
    Query.Session.control_flow s Query.Forward ~f:(fun f b ->
        if !shown < 10 then begin
          Printf.printf "  f%d:B%d\n" f b;
          incr shown
        end)
  in
  Printf.printf "  ... %d block executions in all\n\n" total;

  (* 4. Query: the value sequence of one load instruction. *)
  (match
     Query.copies_matching wet (function Wet_ir.Instr.Load _ -> true | _ -> false)
   with
   | [] -> ()
   | load :: _ ->
     Printf.printf "values loaded by copy %d (statement %d):\n  " load
       wet.W.copy_stmt.(load);
     Query.Session.values_of_copy s load ~f:(Printf.printf "%d ");
     print_newline ();
     print_newline ());

  (* 5. A backward WET slice of the printed sum: everything that fed it. *)
  let out =
    List.hd
      (Query.copies_matching wet (function Wet_ir.Instr.Output _ -> true | _ -> false))
  in
  let slice = Slice.Session.backward s out 0 in
  Printf.printf
    "backward slice of the printed sum: %d statement instances across %d \
     static statements\n"
    slice.Slice.instances slice.Slice.stmts
