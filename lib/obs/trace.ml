type event =
  | Guard_ok of { label : string; expected_rows : float; actual_rows : int; q_error : float }
  | Guard_fired of { label : string; expected_rows : float; actual_rows : int; q_error : float }
  | Reopt_planned of { attempt : int; label : string }
  | Reopt_adopted of { attempt : int; plan : string }
  | Reopt_abandoned of { attempt : int; reason : string }
  | Degraded of { kind : string; subsystem : string; detail : string }
  | Stats_refresh of { tables : string list }
  | Plan_cache of { outcome : string; fingerprint : string; version : int }
  | Rewrite_applied of { rule : string; detail : string }

(* Fingerprints are canonical query renderings and can run long; traces
   only need enough of one to tell entries apart. *)
let abbreviate fp =
  if String.length fp <= 48 then fp else String.sub fp 0 45 ^ "..."

let to_string = function
  | Guard_ok { label; expected_rows; actual_rows; q_error } ->
      Printf.sprintf "guard-ok: %s expected ~%.1f rows, saw %d (q-error %.2f)" label
        expected_rows actual_rows q_error
  | Guard_fired { label; expected_rows; actual_rows; q_error } ->
      Printf.sprintf "guard-fired: %s expected ~%.1f rows, saw %d (q-error %.2f)" label
        expected_rows actual_rows q_error
  | Reopt_planned { attempt; label } ->
      Printf.sprintf "reopt-planned: attempt %d over materialized %s" attempt label
  | Reopt_adopted { attempt; plan } ->
      Printf.sprintf "reopt-adopted: attempt %d continues as %s" attempt plan
  | Reopt_abandoned { attempt; reason } ->
      Printf.sprintf "reopt-abandoned: attempt %d (%s)" attempt reason
  | Degraded { kind; subsystem; detail } ->
      Printf.sprintf "degraded: [%s] %s: %s" kind subsystem detail
  | Stats_refresh { tables } ->
      Printf.sprintf "stats-refresh: %s" (String.concat ", " tables)
  | Plan_cache { outcome; fingerprint; version } ->
      Printf.sprintf "plan-cache: %s %s (stats v%d)" outcome (abbreviate fingerprint) version
  | Rewrite_applied { rule; detail } -> Printf.sprintf "rewrite: %s %s" rule detail

let to_json event =
  let obj kind fields = Json.Obj (("event", Json.Str kind) :: fields) in
  let guard label expected_rows actual_rows q_error =
    [
      ("label", Json.Str label);
      ("expected_rows", Json.Num expected_rows);
      ("actual_rows", Json.Num (float_of_int actual_rows));
      ("q_error", Json.Num q_error);
    ]
  in
  match event with
  | Guard_ok { label; expected_rows; actual_rows; q_error } ->
      obj "guard_ok" (guard label expected_rows actual_rows q_error)
  | Guard_fired { label; expected_rows; actual_rows; q_error } ->
      obj "guard_fired" (guard label expected_rows actual_rows q_error)
  | Reopt_planned { attempt; label } ->
      obj "reopt_planned"
        [ ("attempt", Json.Num (float_of_int attempt)); ("label", Json.Str label) ]
  | Reopt_adopted { attempt; plan } ->
      obj "reopt_adopted"
        [ ("attempt", Json.Num (float_of_int attempt)); ("plan", Json.Str plan) ]
  | Reopt_abandoned { attempt; reason } ->
      obj "reopt_abandoned"
        [ ("attempt", Json.Num (float_of_int attempt)); ("reason", Json.Str reason) ]
  | Degraded { kind; subsystem; detail } ->
      obj "degraded"
        [ ("kind", Json.Str kind); ("subsystem", Json.Str subsystem); ("detail", Json.Str detail) ]
  | Stats_refresh { tables } ->
      obj "stats_refresh" [ ("tables", Json.List (List.map (fun t -> Json.Str t) tables)) ]
  | Plan_cache { outcome; fingerprint; version } ->
      obj "plan_cache"
        [
          ("outcome", Json.Str outcome);
          ("fingerprint", Json.Str fingerprint);
          ("version", Json.Num (float_of_int version));
        ]
  | Rewrite_applied { rule; detail } ->
      obj "rewrite_applied" [ ("rule", Json.Str rule); ("detail", Json.Str detail) ]
