package privmdr

// BodyErrStatus exposes the HTTP status mapping to the external test
// package, so the 400-vs-409-vs-413 contract is pinned table-driven.
var BodyErrStatus = bodyErrStatus

// DecodeQueryBatch exposes QueryRequest's fast decode path, so the fuzz
// target can tell an accepted body from one handed to encoding/json.
var DecodeQueryBatch = decodeQueryBatch

// QueryRequestJSON is QueryRequest without its UnmarshalJSON method: the
// plain encoding/json decode the fast path must agree with.
type QueryRequestJSON = queryRequestJSON
