package perfbench

import java.sql.DriverManager
import org.apache.spark.sql.Row
import org.duckdb.DuckDBConnection
import repro.core.{BgpSql, QueryGraph}
import repro.rdf.RdfGraph

/** An answer as the benchmark compares it: row count plus an
  * order-independent checksum (sum of per-row hashes; rows are distinct).
  */
final case class Answer(rows: Long, checksum: Long) {
  override def toString: String = f"$rows rows, checksum $checksum%016x"
}

object Answer {
  private def mix(x: Long): Long = {
    var z = x + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def rowHash(values: Iterator[Long]): Long = mix(values.foldLeft(17L)((h, v) => mix(h * 31 + v)))

  /** Spark rows of a result `DataFrame` with columns `cols`, hashed in the
    * order of `vars` (the query's variable order).
    */
  def of(rows: Array[Row], cols: Seq[String], vars: Seq[String]): Answer = {
    val idx = vars.map(cols.indexOf)
    require(idx.forall(_ >= 0), s"result columns ${cols.mkString(",")} lack some of ${vars.mkString(",")}")
    Answer(rows.length.toLong, rows.iterator.map(r => rowHash(idx.iterator.map(r.getLong))).sum)
  }
}

/** Reference answers from DuckDB (the in-process JDBC driver) running
  * `BgpSql.sql` over the raw triples — independent of partitioning, Spark
  * and every layer the benchmark times.
  */
object Reference {

  def answers(g: RdfGraph, queries: Seq[(String, QueryGraph)]): Map[String, Answer] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      conn.createStatement.execute("CREATE TABLE triples (s BIGINT, p BIGINT, o BIGINT)")
      val app = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, "triples")
      g.triples.foreach { case (s, p, o) =>
        app.beginRow(); app.append(s); app.append(p); app.append(o); app.endRow()
      }
      app.close()
      queries.map { case (name, q) =>
        name -> (BgpSql.sql(q, g.dict) match {
          case None => Answer(0, 0)
          case Some(sql) =>
            val rs = conn.createStatement.executeQuery(sql)
            var n = 0L
            var sum = 0L
            val width = q.variables.size
            while (rs.next()) {
              n += 1
              sum += Answer.rowHash((1 to width).iterator.map(i => rs.getLong(i)))
            }
            rs.close()
            Answer(n, sum)
        })
      }.toMap
    } finally conn.close()
  }
}
