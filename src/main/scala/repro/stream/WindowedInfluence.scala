package repro.stream

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Pure-Spark windowed influence aggregation — the sliding-window TDN special
  * case (Example 4) expressed directly in Catalyst.
  *
  * With fixed lifetime W, the edge set of G_t is exactly the interactions with
  * ts ∈ (t−W, t], so window-restricted aggregations over the raw stream are
  * TDN computations that never materialize the graph. Direct (1-hop) influence
  * — the number of distinct influencees per influencer — is the aggregation
  * used here; it is the exact spread for bipartite LBSN streams (places have
  * no out-neighbors beyond their check-in users) and a lower bound elsewhere.
  *
  * Every method is a DataFrame-in/DataFrame-out function so the DuckDB oracle
  * can replay the same SQL (see WindowedInfluenceSpec).
  */
object WindowedInfluence {

  /** Interactions alive at `t` under fixed lifetime `w`: ts ∈ (t−w, t]. */
  def aliveAt(interactions: DataFrame, t: Int, w: Int): DataFrame =
    interactions.filter(col("ts") > t - w && col("ts") <= t)

  /** Direct influence per influencer within the window ending at `t`:
    * (src, influence = countDistinct dst).
    */
  def directInfluence(interactions: DataFrame, t: Int, w: Int): DataFrame =
    aliveAt(interactions, t, w)
      .groupBy(col("src"))
      .agg(countDistinct(col("dst")).as("influence"))

  /** Top-k influencers by direct influence in the window ending at `t`;
    * ties broken by smaller id for determinism.
    */
  def topK(interactions: DataFrame, t: Int, w: Int, k: Int): DataFrame =
    directInfluence(interactions, t, w)
      .orderBy(col("influence").desc, col("src").asc)
      .limit(k)

  /** Tumbling-window influence series: for every window of `w` steps,
    * (window_start, src, influence).
    */
  def tumblingSeries(interactions: DataFrame, w: Int): DataFrame =
    interactions
      .withColumn("window_start", (col("ts") - (col("ts") % w)).cast("int"))
      .groupBy(col("window_start"), col("src"))
      .agg(countDistinct(col("dst")).as("influence"))
}
