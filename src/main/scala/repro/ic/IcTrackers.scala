package repro.ic

import repro.core.TdnTracker

/** A static-graph index baseline: `select` rebuilds its RR index from scratch
  * on the current G_t's IC graph at every query (§V-C, ε = 0.3).
  */
sealed abstract class StaticIndexTracker(
    val name: String,
    k: Int,
    universe: Int,
    seed: Long,
    maxRR: Int,
    select: (IcGraph, Int, Double, java.util.Random, Int) => Seq[Int],
) extends TdnTracker(k, universe) {
  require(maxRR >= 1, s"maxRR must be >= 1, got $maxRR")

  private val rng = new java.util.Random(seed)

  override def querySolution: Seq[Int] =
    select(IcGraph.fromCounts(tdn.interactionCounts, universe), k, 0.3, rng, maxRR)

  override def oracleCalls: Long = 0L
}

/** The "IMM" baseline tracker. */
final class ImmTracker(k: Int, universe: Int, seed: Long = 11L, maxRR: Int = 50000)
    extends StaticIndexTracker("IMM", k, universe, seed, maxRR, Imm.select)

/** The "TIM+" baseline tracker. */
final class TimPlusTracker(k: Int, universe: Int, seed: Long = 13L, maxRR: Int = 50000)
    extends StaticIndexTracker("TIM+", k, universe, seed, maxRR, TimPlus.select)
