// R7 patrols only src/fault/ and src/deploy/ — the per-switch TraceRing
// belongs to the switch that owns it, so core/ may use it freely.

void fine(TraceRing* ring) {
  (void)ring;
}
