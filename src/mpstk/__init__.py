"""Multiparty session type toolkit: subtyping, projection, inference and
typing-context property checking over type graphs."""

from .ast import (  # noqa: F401
    BOOL, INT, NAT, SessionTypeError, Session, Sort, SortVar, TypingContext,
    alpha_canon, alpha_eq, participants, size, subformulas, unfold,
)
from .parse import parse  # noqa: F401
from .printer import show  # noqa: F401
from .subtyping import (  # noqa: F401
    gen_coprime_pair, gen_exponential_pair, graph_equiv, subtype_inductive,
    subtype_sim,
)
from .typegraph import global_graph, graph_to_type, is_balanced, local_graph  # noqa: F401
from .projection import (  # noqa: F401
    check_association, gen_lowerbound_family, merge_full_naive,
    merge_full_optimized, project, project_inductive, project_subset, project_tirore,
)
from .inference import gen_lcm_process, infer, infer_min_type  # noqa: F401
from .context import (  # noqa: F401
    barbs, brute_force_liveness, check_deadlock_freedom, check_liveness,
    check_safety, ctx_step, is_safe_state, observations, reachable_graph,
)
from .hardness import QBF, eval_qbf, gen_qbf_context, parse_qbf, validate_reduction  # noqa: F401
from .semantics import explore_session, session_step  # noqa: F401
from .pipeline import run_bottomup, run_topdown, synth_process  # noqa: F401
