package fact

// DecodedRows reports how many of r's rows hold a decoded tuple, for
// the external tests that check which reads leave a batch-built
// relation key-only.
func DecodedRows(r *Relation) int { return len(r.rows) }
