//! tassd's JSON API: the route table and the wire error vocabulary.
//!
//! | Endpoint | Auth | Purpose |
//! |---|---|---|
//! | `GET /v1/healthz` | none | liveness + job counters |
//! | `GET /v1/sources` | none | the source catalogue |
//! | `POST /v1/campaigns` | `X-Api-Key` | submit a campaign: a JSON object of `source`, `strategy` and optional `protocol`, `seed`, `months`, each at most once |
//! | `GET /v1/campaigns/{id}` | `X-Api-Key` | job status |
//! | `GET /v1/campaigns/{id}/results` | `X-Api-Key` | the finished `CampaignResult` |
//! | `GET /v1/campaigns/{id}/results?offset=&limit=` | `X-Api-Key` | a page of its months |
//! | `GET /v1/campaigns/{id}/results/stream` | `X-Api-Key` | the result as chunked transfer encoding, months arriving as the campaign completes them |
//!
//! The API key **is** the tenant identity (tassd trusts its transport;
//! it serves labs and CI, not the internet). Every error is a typed body
//! `{"error":{"code":…,"message":…}}`; jobs of other tenants answer
//! `404` exactly like jobs that never existed, so the job-id space leaks
//! nothing across tenants.
//!
//! The daemon keeps each job's result as one set of parts: the envelope
//! head, one rendered element per month, and the envelope tail. The
//! campaign publishes a month's element as it completes the month, and a
//! published part is never re-rendered. Every results endpoint cuts its
//! body from these parts. The results endpoint joins all of them, so the
//! HTTP body is byte-identical to `serde_json::to_string(&run_campaign(…))`
//! run locally. With `offset`/`limit` query parameters it returns the
//! same envelope with only the requested page of `months` elements.
//!
//! The `/results/stream` variant serves the same result as chunked
//! transfer encoding **without waiting for the campaign to finish**:
//! each month's element is emitted as the campaign completes it, and
//! the concatenated chunks are byte-identical to the unpaginated body.
//! A campaign that fails mid-stream aborts the chunked body (the
//! connection closes without the terminal chunk, so clients see the
//! truncation); a campaign already failed at request time answers a
//! plain `409`.

use crate::httpd::{Request, Response, Router, StreamChunk};
use crate::service::{ResultError, ServiceCore, SubmitError, SubmitRequest};
use serde::Value;
use std::sync::Arc;
use tass_core::parse_spec;
use tass_model::Protocol;

/// Render the typed error body.
fn error_body(code: &str, message: &str) -> String {
    let v = Value::Map(vec![(
        "error".to_string(),
        Value::Map(vec![
            ("code".to_string(), Value::Str(code.to_string())),
            ("message".to_string(), Value::Str(message.to_string())),
        ]),
    )]);
    serde_json::to_string(&v).expect("error bodies always render")
}

fn err(status: u16, code: &str, message: &str) -> Response {
    Response::json(status, error_body(code, message))
}

fn unknown_campaign(id: u64) -> Response {
    err(
        404,
        "unknown_campaign",
        &format!("no campaign {id} for this tenant"),
    )
}

/// A handler's response: what `body` returns, or the first refusal it
/// meets.
fn answer(body: impl FnOnce() -> Result<Response, Response>) -> Response {
    body().unwrap_or_else(|refusal| refusal)
}

/// The tenant identity, from `X-Api-Key`.
fn tenant(req: &Request) -> Result<String, Response> {
    match req.header("x-api-key") {
        Some(key) if !key.is_empty() => Ok(key.to_string()),
        _ => Err(err(
            401,
            "missing_api_key",
            "campaign endpoints require an X-Api-Key header naming the tenant",
        )),
    }
}

/// Every field a submission may carry. Anything else, or a field given
/// twice, is a 400: a body must have exactly one reading.
const SUBMISSION_FIELDS: [&str; 5] = ["source", "strategy", "protocol", "seed", "months"];

fn parse_submission(body: &[u8]) -> Result<SubmitRequest, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| err(400, "bad_request", "request body must be UTF-8 JSON"))?;
    let v: Value = serde_json::from_str(text).map_err(|e| {
        err(
            400,
            "bad_request",
            &format!("request body is not JSON: {e}"),
        )
    })?;
    let Value::Map(entries) = v else {
        return Err(err(
            400,
            "bad_request",
            "request body must be a JSON object",
        ));
    };
    for (i, (key, _)) in entries.iter().enumerate() {
        if !SUBMISSION_FIELDS.contains(&key.as_str()) {
            return Err(err(400, "bad_request", &format!("unknown field {key:?}")));
        }
        if entries[..i].iter().any(|(k, _)| k == key) {
            return Err(err(
                400,
                "bad_request",
                &format!("field {key:?} is repeated"),
            ));
        }
    }
    let lookup = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let field_str = |key: &str| match lookup(key) {
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(Value::Null) | None => Ok(None),
        Some(_) => Err(err(
            400,
            "bad_request",
            &format!("field {key:?} must be a string"),
        )),
    };
    let field_u64 = |key: &str| match lookup(key) {
        Some(Value::U64(n)) => Ok(Some(*n)),
        Some(Value::Null) | None => Ok(None),
        Some(_) => Err(err(
            400,
            "bad_request",
            &format!("field {key:?} must be a non-negative integer"),
        )),
    };
    let source = field_str("source")?
        .ok_or_else(|| err(400, "bad_request", "field \"source\" is required"))?;
    let strategy = field_str("strategy")?
        .ok_or_else(|| err(400, "bad_request", "field \"strategy\" is required"))?;
    let kind = parse_spec(&strategy).map_err(|e| err(422, "bad_strategy", &e.to_string()))?;
    let protocol = match field_str("protocol")? {
        None => None,
        Some(tag) => Some(
            tag.parse::<Protocol>()
                .map_err(|e| err(400, "bad_protocol", &e))?,
        ),
    };
    let seed = field_u64("seed")?.unwrap_or(1);
    let months = match field_u64("months")? {
        None => None,
        Some(m) => Some(
            u32::try_from(m)
                .map_err(|_| err(400, "bad_request", "field \"months\" is too large"))?,
        ),
    };
    Ok(SubmitRequest {
        source,
        kind,
        protocol,
        seed,
        months,
    })
}

fn submit_error(e: SubmitError) -> Response {
    let message = e.to_string();
    match e {
        SubmitError::NotAccepting => err(503, "shutting_down", &message),
        SubmitError::UnknownSource(_) => err(404, "unknown_source", &message),
        SubmitError::BadProtocol { .. } => err(400, "bad_protocol", &message),
        SubmitError::BadMonths { .. } => err(400, "bad_months", &message),
        SubmitError::RateLimited => err(429, "rate_limited", &message),
        SubmitError::QuotaExceeded { .. } => err(429, "quota_exceeded", &message),
    }
}

/// The results page window from the optional `offset`/`limit` query
/// parameters: `offset` defaults to 0 and a missing `limit` means every
/// month from `offset` on, so a request with neither is the whole
/// result, `(0, None)`.
fn page_window(req: &Request) -> Result<(usize, Option<usize>), Response> {
    let parse = |name: &str| -> Result<Option<usize>, Response> {
        match req.query_param(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<usize>().map(Some).map_err(|_| {
                err(
                    400,
                    "bad_request",
                    &format!("query parameter {name:?} must be a non-negative integer"),
                )
            }),
        }
    };
    Ok((parse("offset")?.unwrap_or(0), parse("limit")?))
}

fn job_id(params_id: Option<&str>) -> Result<u64, Response> {
    params_id
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| err(400, "bad_request", "campaign id must be an integer"))
}

/// The daemon's route table over a shared [`ServiceCore`].
pub fn router() -> Router<ServiceCore> {
    Router::<ServiceCore>::new()
        .route("GET", "/v1/healthz", |core, _req, _p| {
            let stats = core.stats();
            Response::json(200, serde_json::to_string(&stats).expect("stats render"))
        })
        .route("GET", "/v1/sources", |core, _req, _p| {
            let sources = core.registry().list();
            Response::json(
                200,
                serde_json::to_string(&sources).expect("sources render"),
            )
        })
        .route("POST", "/v1/campaigns", |core, req, _p| {
            answer(|| {
                let tenant = tenant(req)?;
                Ok(match core.submit(&tenant, parse_submission(&req.body)?) {
                    Ok(id) => Response::json(201, format!(r#"{{"id":{id},"status":"queued"}}"#)),
                    Err(e) => submit_error(e),
                })
            })
        })
        .route("GET", "/v1/campaigns/{id}", |core, req, p| {
            answer(|| {
                let (tenant, id) = (tenant(req)?, job_id(p.get("id"))?);
                let view = core
                    .job_view(&tenant, id)
                    .ok_or_else(|| unknown_campaign(id))?;
                Ok(Response::json(
                    200,
                    serde_json::to_string(&view).expect("views render"),
                ))
            })
        })
        .route("GET", "/v1/campaigns/{id}/results", |core, req, p| {
            answer(|| {
                let (tenant, id) = (tenant(req)?, job_id(p.get("id"))?);
                let (offset, limit) = page_window(req)?;
                Ok(match core.job_result_page(&tenant, id, offset, limit) {
                    Ok(json) => Response::json(200, json),
                    Err(ResultError::NotFound) => unknown_campaign(id),
                    Err(ResultError::NotDone { status }) => err(
                        409,
                        "not_done",
                        &format!("campaign {id} is {status}; results exist once it is done"),
                    ),
                })
            })
        })
        .route(
            "GET",
            "/v1/campaigns/{id}/results/stream",
            |core, req, p| {
                answer(|| {
                    let (tenant, id) = (tenant(req)?, job_id(p.get("id"))?);
                    // resolve existence and terminal failure *before*
                    // committing to a 200 chunked response
                    let view = core
                        .job_view(&tenant, id)
                        .ok_or_else(|| unknown_campaign(id))?;
                    if view.status == "failed" {
                        return Err(err(
                            409,
                            "not_done",
                            &format!("campaign {id} is failed; it will never have results"),
                        ));
                    }
                    let core = Arc::clone(core);
                    let mut piece = 0u64;
                    Ok(Response::stream(200, "application/json", move || {
                        let chunk = core.result_stream_piece(&tenant, id, piece);
                        let chunk = chunk.unwrap_or(StreamChunk::Abort);
                        if let StreamChunk::Data(_) = chunk {
                            piece += 1;
                        }
                        chunk
                    }))
                })
            },
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ShutdownMode, Tassd};
    use tass_model::registry::SourceRegistry;
    use tass_model::universe::{Universe, UniverseConfig};

    fn request(method: &str, path: &str, key: Option<&str>, body: &str) -> Request {
        let mut headers = Vec::new();
        if let Some(key) = key {
            headers.push(("x-api-key".to_string(), key.to_string()));
        }
        let (path, query) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers,
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn wire_errors_are_typed() {
        let mut reg = SourceRegistry::new();
        reg.insert_v4(
            "demo",
            Arc::new(Universe::generate(&UniverseConfig::small(2))),
        )
        .unwrap();
        let daemon = Tassd::start(Arc::new(reg), ServiceConfig::default()).unwrap();
        let core = daemon.core();
        let router = router();
        let cases: Vec<(Request, u16, &str)> = vec![
            // no API key
            (
                request("POST", "/v1/campaigns", None, "{}"),
                401,
                "missing_api_key",
            ),
            // malformed JSON
            (
                request("POST", "/v1/campaigns", Some("t"), "{nope"),
                400,
                "bad_request",
            ),
            // missing required fields
            (
                request("POST", "/v1/campaigns", Some("t"), "{}"),
                400,
                "bad_request",
            ),
            // unknown source
            (
                request(
                    "POST",
                    "/v1/campaigns",
                    Some("t"),
                    r#"{"source":"nope","strategy":"full-scan"}"#,
                ),
                404,
                "unknown_source",
            ),
            // malformed strategy spec
            (
                request(
                    "POST",
                    "/v1/campaigns",
                    Some("t"),
                    r#"{"source":"demo","strategy":"tass:sideways:0.9"}"#,
                ),
                422,
                "bad_strategy",
            ),
            // bad protocol tag
            (
                request(
                    "POST",
                    "/v1/campaigns",
                    Some("t"),
                    r#"{"source":"demo","strategy":"full-scan","protocol":"gopher"}"#,
                ),
                400,
                "bad_protocol",
            ),
            // horizon beyond the source
            (
                request(
                    "POST",
                    "/v1/campaigns",
                    Some("t"),
                    r#"{"source":"demo","strategy":"full-scan","months":99}"#,
                ),
                400,
                "bad_months",
            ),
            // a body that is JSON but not an object
            (
                request("POST", "/v1/campaigns", Some("t"), "[1,2]"),
                400,
                "bad_request",
            ),
            // status of a job that does not exist
            (
                request("GET", "/v1/campaigns/77", Some("t"), ""),
                404,
                "unknown_campaign",
            ),
            (
                request("GET", "/v1/campaigns/77/results", Some("t"), ""),
                404,
                "unknown_campaign",
            ),
            (
                request("GET", "/v1/campaigns/abc", Some("t"), ""),
                400,
                "bad_request",
            ),
        ];
        for (req, status, code) in cases {
            let resp = router.dispatch(&core, &req);
            let body = String::from_utf8(resp.body.clone()).unwrap();
            assert_eq!(
                (resp.status, body.contains(code)),
                (status, true),
                "{} {} -> {body}",
                req.method,
                req.path
            );
        }
        // unauthenticated endpoints answer without a key
        let resp = router.dispatch(&core, &request("GET", "/v1/healthz", None, ""));
        assert_eq!(resp.status, 200);
        let resp = router.dispatch(&core, &request("GET", "/v1/sources", None, ""));
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(resp.status, 200);
        assert!(body.contains(r#""name":"demo""#), "{body}");
        daemon.shutdown(ShutdownMode::Drain).unwrap();
    }

    #[test]
    fn submission_rejects_repeated_and_unknown_fields_naming_them() {
        let rejected = |body: &str| {
            let resp = parse_submission(body.as_bytes()).expect_err(body);
            (resp.status, String::from_utf8(resp.body).unwrap())
        };
        for (body, key) in [
            (
                r#"{"source":"demo","strategy":"full-scan","months":2,"months":3}"#,
                "months",
            ),
            (
                r#"{"source":"a","source":"a","strategy":"full-scan"}"#,
                "source",
            ),
            (
                r#"{"source":"demo","strategy":"full-scan","seed":1,"seed":1}"#,
                "seed",
            ),
        ] {
            let (status, body_text) = rejected(body);
            assert_eq!(status, 400, "{body}");
            assert!(body_text.contains(r#""code":"bad_request""#), "{body_text}");
            assert!(
                body_text.contains(&format!(r#"field \"{key}\" is repeated"#)),
                "{body_text}"
            );
        }
        for (body, key) in [
            (
                r#"{"source":"demo","strategy":"full-scan","priority":9}"#,
                "priority",
            ),
            (r#"{"Source":"demo","strategy":"full-scan"}"#, "Source"),
            (
                r#"{"source":"demo","strategy":"full-scan","months":null,"x":null}"#,
                "x",
            ),
        ] {
            let (status, body_text) = rejected(body);
            assert_eq!(status, 400, "{body}");
            assert!(body_text.contains(r#""code":"bad_request""#), "{body_text}");
            assert!(
                body_text.contains(&format!(r#"unknown field \"{key}\""#)),
                "{body_text}"
            );
        }
        // every known field, each once, still parses
        let ok = parse_submission(
            br#"{"source":"demo","strategy":"full-scan","protocol":"http","seed":4,"months":2}"#,
        )
        .unwrap_or_else(|resp| panic!("{:?}", String::from_utf8(resp.body)));
        assert_eq!((ok.seed, ok.months), (4, Some(2)));
    }
}
