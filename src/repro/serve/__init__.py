"""Online traversal query service (ISSUE 9).

Long-lived serving layer over the resident tree: bounded admission with
token-bucket rate limiting and burn-rate load shedding, deadline-aware
micro-batching into bucket-shaped chunks, supervised execution behind a
circuit breaker, and graceful drain to a PR 4 checkpoint for
zero-downtime restart.  Validated against an open-loop traffic
generator and a DES model that shares the real policy objects.
"""

from .admission import (
    ADMITTED,
    AdmissionConfig,
    AdmissionController,
    BurnRateShedder,
    QueueEntry,
    ServeCounters,
    TokenBucket,
)
from .batcher import BatchPolicy, MicroBatcher
from .bench import BenchResult, accounting_delta, calibrate_capacity, run_trace
from .desmodel import ServeSimResult, ServiceModel, simulate_service
from .executor import BatchExecutor, CircuitBreaker
from .kernels import execute_queries
from .protocol import (
    OPS,
    SERVE_SCHEMA,
    SHED_REASONS,
    STATUS_ERROR,
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_SHED,
    ProtocolError,
    Query,
    Response,
    decode_query_line,
    encode_line,
)
from .resident import ResidentState, build_resident_state, checkpoint_resident
from .server import InProcessClient, SocketServer, socket_query
from .service import QueryService, ServeConfig
from .traffic import TrafficShape, TrafficTrace, generate_traffic

__all__ = [
    "ADMITTED",
    "AdmissionConfig",
    "AdmissionController",
    "BatchExecutor",
    "BatchPolicy",
    "BenchResult",
    "BurnRateShedder",
    "CircuitBreaker",
    "InProcessClient",
    "MicroBatcher",
    "OPS",
    "ProtocolError",
    "Query",
    "QueryService",
    "QueueEntry",
    "Response",
    "ResidentState",
    "SERVE_SCHEMA",
    "SHED_REASONS",
    "STATUS_ERROR",
    "STATUS_EXPIRED",
    "STATUS_OK",
    "STATUS_SHED",
    "ServeConfig",
    "ServeCounters",
    "ServeSimResult",
    "ServiceModel",
    "SocketServer",
    "TokenBucket",
    "TrafficShape",
    "TrafficTrace",
    "accounting_delta",
    "build_resident_state",
    "calibrate_capacity",
    "checkpoint_resident",
    "decode_query_line",
    "encode_line",
    "execute_queries",
    "generate_traffic",
    "run_trace",
    "simulate_service",
    "socket_query",
]
