// Fixture: must analyze clean. The serving driver only ever emits
// forward-phase work; phase names appearing in comments (backward,
// optimizer) are masked and never match.
namespace pinpoint {
namespace runtime {

void
append_request_work(Plan &plan, const Op &fwd_op)
{
    Op op = fwd_op;
    op.phase = OpPhase::kForward;
    plan.iteration_ops.push_back(op);
}

}  // namespace runtime
}  // namespace pinpoint
