package repro.bench

import repro.{Oracle, SparkSpec}
import repro.experiments.Experiments
import repro.stream.InteractionStreams

/** Table I — summary of interaction datasets (paper vs 1/100-scale synthetics).
  *
  * Regenerate: `sbt "bench/testOnly repro.bench.TableIBench"` or
  * `sbt "runMain repro.jobs.RunExhibit table-i"`.
  */
class TableIBench extends SparkSpec {

  test("Table I: dataset summary — paper vs synthetic (1/100 scale)") {
    val rows = Experiments.tableI(spark)

    Experiments.tableILines(rows).foreach(l => println(s"BENCH|TableI| $l"))

    assert(rows.size == 6, "all six datasets are generated")
    rows.foreach { r =>
      // Interactions are exactly 1/100 of the paper's (rounded down in spec).
      assert(
        math.abs(r.interactions - r.paperInteractions / 100.0) < r.paperInteractions / 100.0 * 0.01 + 10,
        s"${r.dataset}: interactions ${r.interactions} vs paper/100 ${r.paperInteractions / 100}",
      )
      // Nodes: within the universe and a nontrivial fraction of it (zipf means
      // not every source id appears).
      assert(r.nodes > 0 && r.nodes <= r.paperNodes / 100 + 1)
      assert(r.nodes > r.paperNodes / 100 / 20, s"${r.dataset}: too few distinct nodes ${r.nodes}")
    }
  }

  test("Table I counts are DuckDB-verified for one dataset") {
    import org.apache.spark.sql.functions._
    val df = InteractionStreams.generate(spark, InteractionStreams.twitterHiggs)
    val sparkAgg = df.agg(count(lit(1)).as("m"), countDistinct(col("src")).as("nsrc"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT count(*) AS m, count(DISTINCT src) AS nsrc FROM interactions",
      "interactions" -> df,
    )
  }
}
