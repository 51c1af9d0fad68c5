package privmdr

// DecodeQueryBatch exposes QueryRequest's fast decode path, so the fuzz
// target can tell an accepted body from one handed to encoding/json.
var DecodeQueryBatch = decodeQueryBatch

// QueryRequestJSON is QueryRequest without its UnmarshalJSON method: the
// plain encoding/json decode the fast path must agree with.
type QueryRequestJSON = queryRequestJSON
