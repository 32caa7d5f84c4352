// R7: trace-ring use inside src/fault/. Fixtures are never compiled, so the
// ring type is referenced without a declaration here — declaring it locally
// would itself mention TraceRing and trip the rule.

void positive(TraceRing* ring) {  // srlint-expect: R7
  (void)ring;
}

void negative(SpanCollector* spans) {
  (void)spans;  // the update lifecycle belongs on spans — clean
  // TraceRing mentioned in a comment only — clean
  const char* s = "TraceRing in a string is clean too";
  (void)s;
}
