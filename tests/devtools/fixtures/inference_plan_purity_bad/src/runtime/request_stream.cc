// Fixture: MUST trigger [inference-plan-purity]. Emitting a
// backward-phase op from the serving driver would ship training
// work into inference sessions and break the zoo-wide no-backward
// property.
namespace pinpoint {
namespace runtime {

void
append_training_work(Plan &plan, const Op &grad_op)
{
    Op op = grad_op;
    op.phase = OpPhase::kBackward;
    plan.iteration_ops.push_back(op);
}

}  // namespace runtime
}  // namespace pinpoint
