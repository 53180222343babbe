//! Path routing with `:param` captures.

use crate::http::{Request, Response, Status};
use std::collections::HashMap;

/// Captured path parameters.
pub type PathParams = HashMap<String, String>;

type Handler = Box<dyn Fn(&Request, &PathParams) -> Response + Send + Sync>;

struct Route {
    method: String,
    /// Original pattern string — the `route` label on HTTP metrics, so
    /// `/reports/:id` stays one series instead of one per report.
    pattern: String,
    segments: Vec<Segment>,
    handler: Handler,
}

enum Segment {
    Literal(String),
    Param(String),
}

/// A method+path router.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Router({} routes)", self.routes.len())
    }
}

fn parse_segments(pattern: &str) -> Vec<Segment> {
    pattern
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| {
            if let Some(name) = s.strip_prefix(':') {
                Segment::Param(name.to_string())
            } else {
                Segment::Literal(s.to_string())
            }
        })
        .collect()
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Registers a route. Patterns use `:name` for parameters
    /// (`/reports/:id/annotations`).
    pub fn route(
        &mut self,
        method: &str,
        pattern: &str,
        handler: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.routes.push(Route {
            method: method.to_uppercase(),
            pattern: pattern.to_string(),
            segments: parse_segments(pattern),
            handler: Box::new(handler),
        });
        self
    }

    /// Dispatches a request; 404 when no path matches, 405 when the path
    /// matches under a different method.
    ///
    /// Every dispatch runs under a [`create_obs::RequestTrace`]: a valid
    /// inbound `X-Trace-Id` header (1–16 hex chars, nonzero) is honored
    /// for client-correlated tracing, otherwise a fresh ID is minted;
    /// either way the ID is echoed back in the `X-Trace-Id` response
    /// header — including 404/405 responses. The installed context
    /// follows pooled work (a batch search's queries, ingest workers)
    /// onto workers; a single search runs its shards on this thread.
    /// Every request persists its span tree into the flight recorder
    /// (`GET /trace/{id}`, and `GET /slowlog` with the request's query
    /// parameters when it crossed the slow threshold) when dispatch
    /// completes. Latency and status land in
    /// `create_http_request_seconds{route=...}` (with a trace-ID
    /// exemplar) and
    /// `create_http_requests_total{route=...,status=...}`, labelled by
    /// route *pattern* so parameterized paths stay one series.
    pub fn dispatch(&self, request: &Request) -> Response {
        let trace =
            create_obs::RequestTrace::begin(request.headers.get("x-trace-id").map(String::as_str));
        let start = std::time::Instant::now();
        let (response, route_label) = match self.lookup(request) {
            Ok((route, params)) => ((route.handler)(request, &params), route.pattern.as_str()),
            Err((status, message, label)) => (Response::error(status, message), label),
        };
        if create_obs::enabled() {
            let status = response.status.code().to_string();
            create_obs::counter_with(
                create_obs::names::HTTP_REQUESTS_TOTAL,
                &[("route", route_label), ("status", &status)],
            )
            .inc();
            create_obs::histogram_with(
                create_obs::names::HTTP_REQUEST_SECONDS,
                &[("route", route_label)],
            )
            .observe_traced(
                start.elapsed().as_secs_f64(),
                create_obs::current_trace_raw(),
            );
        }
        // The recorder persists the span tree before the response
        // leaves, so a client can immediately GET /trace/{id} for the ID
        // it just received.
        let params = request.query.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let trace_id = trace.finish(route_label, params);
        response.with_header("X-Trace-Id", trace_id)
    }

    /// The route-pattern label a request would dispatch under, without
    /// running the handler — the admission-control key for per-route
    /// in-flight limits, so `/reports/:id` shares one budget.
    pub fn route_label(&self, request: &Request) -> &str {
        match self.lookup(request) {
            Ok((route, _)) => route.pattern.as_str(),
            Err((_, _, label)) => label,
        }
    }

    /// The one route walk: the route a request dispatches to with its
    /// path parameters, or the 405 when some route matches the path under
    /// another method, else the 404.
    fn lookup(&self, request: &Request) -> Result<(&Route, PathParams), Miss> {
        let path_segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let mut miss = UNMATCHED;
        for route in &self.routes {
            let Some(params) = match_segments(&route.segments, &path_segments) else {
                continue;
            };
            if route.method == request.method {
                return Ok((route, params));
            }
            miss = METHOD_NOT_ALLOWED;
        }
        Err(miss)
    }
}

/// A request no route answers: its status, its error message and its
/// `route` label.
type Miss = (Status, &'static str, &'static str);

const UNMATCHED: Miss = (Status::NotFound, "no such route", "(unmatched)");

const METHOD_NOT_ALLOWED: Miss = (
    Status::MethodNotAllowed,
    "method not allowed",
    "(method_not_allowed)",
);

fn match_segments(pattern: &[Segment], path: &[&str]) -> Option<PathParams> {
    if pattern.len() != path.len() {
        return None;
    }
    let mut params = PathParams::new();
    for (seg, &actual) in pattern.iter().zip(path) {
        match seg {
            Segment::Literal(expected) if expected == actual => {}
            Segment::Literal(_) => return None,
            Segment::Param(name) => {
                params.insert(name.clone(), actual.to_string());
            }
        }
    }
    Some(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body: Vec::new(),
        }
    }

    fn router() -> Router {
        let mut r = Router::new();
        r.route("GET", "/health", |_, _| Response::text(Status::Ok, "ok"));
        r.route("GET", "/reports/:id", |_, p| {
            Response::text(Status::Ok, format!("report {}", p["id"]))
        });
        r.route("GET", "/reports/:id/annotations", |_, p| {
            Response::text(Status::Ok, format!("ann {}", p["id"]))
        });
        r.route("POST", "/submit", |req, _| {
            Response::text(Status::Created, format!("got {}", req.body.len()))
        });
        r
    }

    #[test]
    fn literal_route() {
        let r = router();
        let resp = r.dispatch(&get("/health"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, b"ok");
    }

    #[test]
    fn param_capture() {
        let r = router();
        let resp = r.dispatch(&get("/reports/pmid:123"));
        assert_eq!(String::from_utf8(resp.body).unwrap(), "report pmid:123");
    }

    #[test]
    fn nested_param_route() {
        let r = router();
        let resp = r.dispatch(&get("/reports/x/annotations"));
        assert_eq!(String::from_utf8(resp.body).unwrap(), "ann x");
    }

    #[test]
    fn not_found_vs_method_not_allowed() {
        let r = router();
        assert_eq!(r.dispatch(&get("/nope")).status, Status::NotFound);
        let mut post = get("/health");
        post.method = "POST".to_string();
        assert_eq!(r.dispatch(&post).status, Status::MethodNotAllowed);
    }

    #[test]
    fn route_label_matches_dispatch_pattern() {
        let r = router();
        assert_eq!(r.route_label(&get("/health")), "/health");
        assert_eq!(r.route_label(&get("/reports/pmid:9")), "/reports/:id");
        assert_eq!(r.route_label(&get("/nope")), "(unmatched)");
        let mut post = get("/health");
        post.method = "POST".to_string();
        assert_eq!(r.route_label(&post), "(method_not_allowed)");
    }

    #[test]
    fn segment_count_must_match() {
        let r = router();
        assert_eq!(r.dispatch(&get("/reports")).status, Status::NotFound);
        assert_eq!(r.dispatch(&get("/reports/a/b/c")).status, Status::NotFound);
    }
}
