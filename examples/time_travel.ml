(* Time travel over a WET: reconstruct the memory image at arbitrary
   execution points without re-running the program.

   No single profile can answer "what did memory hold at time t?" — it
   takes the timestamps (when each store ran), the dependence edges
   (which address it wrote) and the value labels (what it stored)
   together. That is the unified-representation argument of the paper's
   introduction, exercised here on a program whose memory evolves in
   phases.

     dune exec examples/time_travel.exe *)

module W = Wet_core.Wet
module State = Wet_analyses.State_reconstruct

let source =
  {|
global phase;
global histogram[8];

fn main() {
  // phase 1: fill the histogram
  phase = 1;
  var i = 0;
  while (i < 64) {
    var bucket = (i * i) % 8;
    histogram[bucket] = histogram[bucket] + 1;
    i = i + 1;
  }
  // phase 2: fold it down
  phase = 2;
  var j = 1;
  while (j < 8) {
    histogram[0] = histogram[0] + histogram[j];
    histogram[j] = 0;
    j = j + 1;
  }
  print(histogram[0]);
}
|}

let () =
  let program = Wet_minic.Frontend.compile_exn source in
  let out = Wet_interp.Interp.outputs_only program ~input:[||] in
  let wet =
    Wet_core.Builder.(pack (run_streaming ~program ~input:[||] ()))
  in
  let total = wet.W.stats.W.path_execs in
  Printf.printf "run spans timestamps 1..%d; final output %d\n\n" total
    out.(0);

  let session = W.open_session wet in
  let show ts =
    let s = State.at_session session ~ts in
    let hist_base = Wet_ir.Program.global_base wet.W.program "histogram" in
    Printf.printf "t=%-4d phase=%d histogram=[" ts (State.global wet s "phase");
    for b = 0 to 7 do
      Printf.printf "%s%d" (if b > 0 then "; " else "") (State.read s (hist_base + b))
    done;
    Printf.printf "]  (%d addresses written so far)\n"
      (List.length (State.written s))
  in
  (* sample the run at a few points: filling, mid-fill, folding, end *)
  List.iter show [ max 1 (total / 8); total / 2; max 1 (total - 4); total ];

  print_newline ();
  print_endline
    "Each line is reconstructed purely from the compressed WET - the\n\
     timestamps say when each store ran, the dependence edges say where\n\
     it wrote and what value it carried. No re-execution involved."
