package repro.ic

import repro.core.TdnTracker

/** "IMM" baseline tracker: static-graph index rebuilt from scratch on the
  * current G_t's IC graph at every query (§V-C, ε = 0.3).
  */
final class ImmTracker(
    k: Int,
    universe: Int,
    seed: Long = 11L,
    maxRR: Int = 50000,
) extends TdnTracker(universe) {
  private val rng = new java.util.Random(seed)

  override def name: String = "IMM"

  override def querySolution: Seq[Int] =
    Imm.select(IcGraph.fromCounts(tdn.interactionCounts, universe), k, eps = 0.3, rng, maxRR)

  override def oracleCalls: Long = 0L
}

/** "TIM+" baseline tracker: static-graph index rebuilt at every query
  * (§V-C, ε = 0.3).
  */
final class TimPlusTracker(
    k: Int,
    universe: Int,
    seed: Long = 13L,
    maxRR: Int = 50000,
) extends TdnTracker(universe) {
  private val rng = new java.util.Random(seed)

  override def name: String = "TIM+"

  override def querySolution: Seq[Int] =
    TimPlus.select(IcGraph.fromCounts(tdn.interactionCounts, universe), k, eps = 0.3, rng, maxRR)

  override def oracleCalls: Long = 0L
}
