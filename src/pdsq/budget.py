"""One memory budget: a step whose arrays grow with its input (a power-ladder
step, the mitigation kernels, a dense assembly) checks the bytes it needs,
computed from shapes, before it allocates."""

MEMORY_BUDGET = 1 << 30  # bytes


class MemoryBudgetError(RuntimeError):
    """A step needs more than MEMORY_BUDGET bytes; raised before it allocates."""


def check_memory(step: str, nbytes: int) -> None:
    if nbytes > MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"{step}: {nbytes} bytes exceed the cap MEMORY_BUDGET = {MEMORY_BUDGET} bytes"
        )
