package repro.tdn

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Lifetime assignment for arriving interactions (§II-B).
  *
  * The TDN model is configured entirely by the lifetime each interaction
  * carries: a fixed lifetime gives sliding-window networks (Example 4), one
  * longer than any horizon gives addition-only networks (Example 3), and a
  * geometric lifetime gives probabilistic time-decaying networks (Example 5),
  * the paper's experimental setting (§V-B), which every job and bench uses.
  */
object Lifetimes {

  /** Geometric(p)-truncated-at-L lifetime as a Spark column:
    * Pr(l) ∝ (1−p)^{l−1} p for l ∈ {1..L}, sampled by inverse CDF,
    * l = min(L, 1 + ⌊ln U / ln(1−p)⌋) with U ∈ (0, 1].
    */
  def geometricColumn(p: Double, maxL: Int, seed: Long): Column = {
    require(p > 0.0 && p < 1.0, s"p must be in (0,1), got $p")
    require(maxL >= 1, s"maxL must be >= 1, got $maxL")
    least(
      lit(maxL),
      (floor(log(lit(1.0) - rand(seed)) / math.log1p(-p)) + 1).cast("int"),
    )
  }

  /** Attach a `lifetime` column to an interaction DataFrame (ts, src, dst). */
  def withGeometricLifetimes(df: DataFrame, p: Double, maxL: Int, seed: Long): DataFrame =
    df.withColumn("lifetime", geometricColumn(p, maxL, seed))
}
