(* One pass to size the columns, then every line written straight into
   one buffer: short rows are padded with empty cells, every cell (the
   last one too) is padded to its column's width, and columns are
   separated by two spaces. *)
let render ~header rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length header) rows
  in
  let widths = Array.make ncols 0 in
  let measure =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create (Array.fold_left ( + ) (2 * ncols) widths * (List.length rows + 2)) in
  let add_line cell =
    for i = 0 to ncols - 1 do
      if i > 0 then Buffer.add_string buf "  ";
      let s = cell i in
      Buffer.add_string buf s;
      for _ = String.length s + 1 to widths.(i) do
        Buffer.add_char buf ' '
      done
    done;
    Buffer.add_char buf '\n'
  in
  let add_row r =
    let r = Array.of_list r in
    add_line (fun i -> if i < Array.length r then r.(i) else "")
  in
  add_row header;
  add_line (fun i -> String.make widths.(i) '-');
  List.iter add_row rows;
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)

let blocks = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline xs =
  if Array.length xs = 0 then ""
  else begin
    let lo, hi = Stats.min_max xs in
    let span = if hi = lo then 1. else hi -. lo in
    let buf = Buffer.create (Array.length xs * 3) in
    Array.iter
      (fun x ->
        let level = int_of_float ((x -. lo) /. span *. 8.) in
        Buffer.add_string buf blocks.(max 0 (min 8 level)))
      xs;
    Buffer.contents buf
  end

let ascii_plot ?(height = 12) ?labels series =
  match series with
  | [] -> ""
  | first :: _ ->
      let n = Array.length first in
      let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) s ->
            if Array.length s = 0 then (lo, hi)
            else
              let l, h = Stats.min_max s in
              (Float.min lo l, Float.max hi h))
          (Float.infinity, Float.neg_infinity)
          series
      in
      let span = if hi <= lo then 1. else hi -. lo in
      let grid = Array.make_matrix height n ' ' in
      List.iteri
        (fun si s ->
          let g = glyphs.(si mod Array.length glyphs) in
          Array.iteri
            (fun i x ->
              if i < n then begin
                let row =
                  height - 1
                  - int_of_float ((x -. lo) /. span *. float_of_int (height - 1))
                in
                let row = max 0 (min (height - 1) row) in
                grid.(row).(i) <- g
              end)
            s)
        series;
      let buf = Buffer.create (height * (n + 8)) in
      Array.iteri
        (fun r row ->
          let axis_val = hi -. (float_of_int r /. float_of_int (height - 1) *. span) in
          Buffer.add_string buf (Printf.sprintf "%7.1f |" axis_val);
          Array.iter (fun c -> Buffer.add_char buf c; Buffer.add_char buf ' ') row;
          Buffer.add_char buf '\n')
        grid;
      (match labels with
      | Some ls ->
          Buffer.add_string buf "         legend: ";
          List.iteri
            (fun i l ->
              Buffer.add_string buf
                (Printf.sprintf "%c=%s  " glyphs.(i mod Array.length glyphs) l))
            ls;
          Buffer.add_char buf '\n'
      | None -> ());
      Buffer.contents buf
