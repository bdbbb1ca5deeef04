"""Latency and memory cost models for a single model replica.

The paper evaluates ``meta-llama/Llama-3.1-8B-Instruct`` served by SGLang on
one NVIDIA L4 GPU.  We do not have the GPU, so the replica simulator uses an
analytical profile calibrated against the numbers the paper itself reports:

* a 512-token prefill takes roughly 300 ms on the L4 (§2.1),
* a continuous-batching step takes "tens of milliseconds" (§4.1),
* one replica sustains roughly 20--50 concurrent requests depending on
  request sizes (§3.3),
* per-token KV-cache memory for an 8B model in fp16 is about 128 KiB
  (2 bytes/elem x 2 (K and V) x 32 layers x 8 KV heads x 128 head dim).

The profile deliberately exposes only *observable* quantities (step
durations, memory capacity); nothing in the routing layer may peek at it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ModelProfile",
    "LLAMA_8B_L4",
    "LLAMA_8B_A100",
    "TINY_TEST_PROFILE",
    "PERFORMANCE_LEVELS",
    "resolve_performance_scale",
]

GiB = 1024 ** 3
KiB = 1024

#: Named performance levels for gray-failure (slow-but-alive) replicas.
#: The values are compute-rate multipliers: a replica at ``thermal-throttle``
#: runs prefill/decode compute at 55% of nominal speed.  The names mirror the
#: frequency-control knobs exposed by tools like pepc (P-states, uncore
#: frequency, RAPL power caps) without modelling the hardware itself.
PERFORMANCE_LEVELS = {
    "nominal": 1.0,
    "uncore-degraded": 0.85,
    "power-cap": 0.72,
    "thermal-throttle": 0.55,
    "p-state-floor": 0.40,
}


def resolve_performance_scale(level) -> float:
    """Resolve a performance level to a compute-rate multiplier.

    ``level`` may be one of the :data:`PERFORMANCE_LEVELS` names or a float
    in ``(0, 1]`` for an explicit multiplier.
    """
    if isinstance(level, str):
        try:
            return PERFORMANCE_LEVELS[level]
        except KeyError:
            raise ValueError(
                f"unknown performance level {level!r}; "
                f"known: {sorted(PERFORMANCE_LEVELS)}"
            ) from None
    scale = float(level)
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"performance scale must be in (0, 1], got {scale}")
    return scale


@dataclass(frozen=True)
class ModelProfile:
    """Analytical performance/memory model of one model replica.

    All latencies are in seconds, all memory in bytes.
    """

    name: str
    #: Fixed overhead per prefill batch (kernel launches, scheduling).
    prefill_base_s: float
    #: Marginal prefill time per *uncached* prompt token.
    prefill_per_token_s: float
    #: Fixed overhead per decode step (one token for every running request).
    decode_base_s: float
    #: Marginal decode time per running request in the batch.
    decode_per_seq_s: float
    #: Marginal decode time per thousand tokens of KV context attended to.
    decode_per_kilotoken_s: float
    #: KV-cache bytes needed per token.
    kv_bytes_per_token: int
    #: Total GPU memory.
    gpu_memory_bytes: int
    #: Memory consumed by model weights + activations + CUDA graphs.
    weight_memory_bytes: int
    #: Maximum number of sequences the engine will run concurrently.
    max_batch_size: int = 64
    #: Fraction of the remaining memory usable for KV cache (vLLM-style
    #: gpu_memory_utilization safety margin).
    kv_memory_fraction: float = 0.9
    #: Number of output tokens of KV memory reserved when admitting a
    #: request (the engine must leave room for the sequence to grow).
    admission_output_reserve: int = 64

    # ------------------------------------------------------------------
    @property
    def kv_capacity_bytes(self) -> int:
        """Bytes available for the KV cache after weights are loaded."""
        usable = self.gpu_memory_bytes - self.weight_memory_bytes
        if usable <= 0:
            raise ValueError(
                f"profile {self.name!r}: weights do not fit in GPU memory"
            )
        return int(usable * self.kv_memory_fraction)

    @property
    def kv_capacity_tokens(self) -> int:
        """Total number of tokens the KV cache can hold."""
        return self.kv_capacity_bytes // self.kv_bytes_per_token

    # ------------------------------------------------------------------
    def prefill_time(self, new_tokens: int) -> float:
        """Time to prefill ``new_tokens`` uncached prompt tokens.

        Cached prefix tokens are skipped entirely, which is how prefix-cache
        hits translate into lower TTFT.
        """
        if new_tokens < 0:
            raise ValueError("new_tokens must be non-negative")
        if new_tokens == 0:
            # Even a fully-cached prompt needs one step to emit its first
            # token (it still runs a single decode-like forward pass).
            return self.decode_base_s + self.decode_per_seq_s
        return self.prefill_base_s + new_tokens * self.prefill_per_token_s

    def decode_step_time(self, batch_size: int, context_tokens: int) -> float:
        """Time for one continuous-batching decode step.

        Parameters
        ----------
        batch_size:
            Number of running sequences (each produces one token).
        context_tokens:
            Total KV tokens attended to across the batch.
        """
        if batch_size <= 0:
            raise ValueError("decode step requires at least one sequence")
        return (
            self.decode_base_s
            + batch_size * self.decode_per_seq_s
            + (context_tokens / 1000.0) * self.decode_per_kilotoken_s
        )


#: Llama-3.1-8B-Instruct on one NVIDIA L4 (24 GiB), the paper's setup.
#: The 256-token admission reserve mirrors how serving engines hold back a
#: margin of KV blocks for each newly admitted sequence; growth beyond the
#: reserve is handled by preemption and recomputation.
LLAMA_8B_L4 = ModelProfile(
    name="llama-3.1-8b-instruct/L4",
    prefill_base_s=0.020,
    prefill_per_token_s=0.300 / 512,       # ~300 ms for a 512-token prompt
    decode_base_s=0.025,
    decode_per_seq_s=0.0008,
    decode_per_kilotoken_s=0.0006,
    kv_bytes_per_token=128 * KiB,
    gpu_memory_bytes=24 * GiB,
    weight_memory_bytes=16 * GiB,
    max_batch_size=64,
    admission_output_reserve=256,
)

#: The same model on an A100-80GB; used by heterogeneity examples/ablation.
LLAMA_8B_A100 = ModelProfile(
    name="llama-3.1-8b-instruct/A100-80GB",
    prefill_base_s=0.010,
    prefill_per_token_s=0.060 / 512,
    decode_base_s=0.012,
    decode_per_seq_s=0.0003,
    decode_per_kilotoken_s=0.0002,
    kv_bytes_per_token=128 * KiB,
    gpu_memory_bytes=80 * GiB,
    weight_memory_bytes=17 * GiB,
    max_batch_size=256,
)

#: A tiny, fast profile for unit tests: small capacity so tests can exercise
#: memory pressure and pending queues without simulating thousands of tokens.
TINY_TEST_PROFILE = ModelProfile(
    name="tiny-test",
    prefill_base_s=0.001,
    prefill_per_token_s=0.0001,
    decode_base_s=0.002,
    decode_per_seq_s=0.0001,
    decode_per_kilotoken_s=0.0001,
    kv_bytes_per_token=1,
    gpu_memory_bytes=3_000,
    weight_memory_bytes=1_000,
    max_batch_size=8,
    kv_memory_fraction=1.0,
    admission_output_reserve=8,
)
