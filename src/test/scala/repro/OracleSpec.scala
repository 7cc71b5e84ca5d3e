package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself must fail loudly on wrong results. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  test("assertEquivalent accepts a correct aggregation") {
    val df = Seq((1, "a"), (2, "a"), (3, "b")).toDF("x", "g")
    Oracle.assertEquivalent(
      df.groupBy($"g").agg(count(lit(1)).as("n")),
      "SELECT g, count(*) AS n FROM t GROUP BY g",
      "t" -> df,
    )
  }

  test("assertEquivalent rejects a wrong result") {
    val df = Seq((1, "a"), (2, "a"), (3, "b")).toDF("x", "g")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.groupBy($"g").agg((count(lit(1)) + 1).as("n")), // off by one
        "SELECT g, count(*) AS n FROM t GROUP BY g",
        "t" -> df,
      )
    }
  }

  test("assertEquivalent rejects mismatched column sets") {
    val df = Seq((1, "a")).toDF("x", "g")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.select($"x"),
        "SELECT g FROM t",
        "t" -> df,
      )
    }
  }
}
