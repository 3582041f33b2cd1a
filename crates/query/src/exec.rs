//! Statement execution.

use crate::ast::{Expr, Statement, Target};
use crate::database::{Database, QueryResult};
use crate::index::{datum_key, index_prop_key, probe_for, IndexDef, ProbeKind};
use crate::schema::{Column, Schema};
use crate::{QueryError, Result};
use pglo_adt::datum::{decode_row, encode_row};
use pglo_adt::{Datum, ExecCtx};
use pglo_btree::BTree;
use pglo_compress::CodecKind;
use pglo_core::{LoKind, LoSpec};
use pglo_heap::Heap;
use pglo_pages::Tid;
use pglo_txn::{Txn, Visibility};
use std::collections::HashMap;

/// Execute one parsed statement within `txn`.
pub fn execute(db: &Database, txn: &Txn, stmt: &Statement) -> Result<QueryResult> {
    let mut exec = Executor { db, txn };
    match stmt {
        Statement::Create { class, columns, smgr } => exec.create(class, columns, smgr.as_deref()),
        Statement::CreateLargeType { type_name, input, output, storage, compression, smgr } => exec
            .create_large_type(
                type_name,
                input,
                output,
                storage,
                compression.as_deref(),
                smgr.as_deref(),
            ),
        Statement::Append { class, targets } => exec.append(class, targets),
        Statement::Retrieve { targets, into, from, qual, sort_by, unique, as_of } => {
            let result = exec.retrieve(
                targets,
                from.as_deref(),
                qual.as_ref(),
                sort_by.as_ref(),
                *unique,
                *as_of,
            )?;
            match into {
                Some(new_class) => exec.materialize_into(new_class, result),
                None => Ok(result),
            }
        }
        Statement::Replace { class, targets, qual } => exec.replace(class, targets, qual.as_ref()),
        Statement::Delete { class, qual } => exec.delete(class, qual.as_ref()),
        Statement::Destroy { class } => exec.destroy(class),
        Statement::DefineIndex { name, class, expr, expr_text } => {
            exec.define_index(name, class, expr, expr_text)
        }
        Statement::DestroyIndex { name, class } => exec.destroy_index(name, class),
        Statement::Vacuum { class } => exec.vacuum(class),
    }
}

struct Executor<'a> {
    db: &'a Database,
    txn: &'a Txn,
}

/// A row binding during evaluation: one or more ranged classes with their
/// schemas and current tuple values (several for join queries).
struct RowBinding<'r> {
    entries: Vec<BindEntry<'r>>,
}

struct BindEntry<'r> {
    class: &'r str,
    schema: &'r Schema,
    values: &'r [Datum],
}

impl<'r> RowBinding<'r> {
    fn single(class: &'r str, schema: &'r Schema, values: &'r [Datum]) -> Self {
        Self { entries: vec![BindEntry { class, schema, values }] }
    }

    /// Resolve `class.attr` or a bare `attr`.
    fn resolve(&self, class: Option<&str>, attr: &str) -> Result<Datum> {
        match class {
            Some(c) => {
                let entry = self.entries.iter().find(|e| e.class == c).ok_or_else(|| {
                    QueryError::Semantic(format!("query does not range over \"{c}\""))
                })?;
                let idx = entry.schema.index_of(attr).ok_or_else(|| {
                    QueryError::Semantic(format!("class \"{c}\" has no column \"{attr}\""))
                })?;
                Ok(entry.values.get(idx).cloned().unwrap_or(Datum::Null))
            }
            None => {
                let mut found: Option<Datum> = None;
                for entry in &self.entries {
                    if let Some(idx) = entry.schema.index_of(attr) {
                        if found.is_some() {
                            return Err(QueryError::Semantic(format!(
                                "column \"{attr}\" is ambiguous; qualify it"
                            )));
                        }
                        found = Some(entry.values.get(idx).cloned().unwrap_or(Datum::Null));
                    }
                }
                found.ok_or_else(|| {
                    QueryError::Semantic(format!("no ranged class has a column \"{attr}\""))
                })
            }
        }
    }
}

impl Executor<'_> {
    fn ctx(&self) -> ExecCtx<'_> {
        ExecCtx::new(self.db.store(), self.txn, self.db.types())
    }

    fn class_schema(&self, class: &str) -> Result<Schema> {
        let meta = self
            .db
            .env()
            .catalog()
            .get(class)
            .ok_or_else(|| QueryError::Semantic(format!("class \"{class}\" does not exist")))?;
        let text = meta
            .props
            .get("schema")
            .ok_or_else(|| QueryError::Semantic(format!("class \"{class}\" has no schema")))?;
        Schema::parse(text)
    }

    fn open_heap(&self, class: &str) -> Result<Heap> {
        Ok(Heap::open(self.db.env(), class)?)
    }

    // ---- DDL ----

    fn create(
        &mut self,
        class: &str,
        columns: &[crate::ast::ColumnDef],
        smgr: Option<&str>,
    ) -> Result<QueryResult> {
        let types = self.db.types();
        for col in columns {
            types
                .get(&col.type_name)
                .map_err(|_| QueryError::Semantic(format!("unknown type \"{}\"", col.type_name)))?;
        }
        let schema = Schema::new(
            columns
                .iter()
                .map(|c| Column { name: c.name.clone(), type_name: c.type_name.clone() })
                .collect(),
        );
        let smgr_id = match smgr {
            None => self.db.env().disk_id(),
            Some(name) => {
                self.db
                    .env()
                    .switch()
                    .by_name(name)
                    .ok_or_else(|| {
                        QueryError::Semantic(format!("unknown storage manager \"{name}\""))
                    })?
                    .0
            }
        };
        let mut props = HashMap::new();
        props.insert("schema".to_string(), schema.to_prop());
        Heap::create(self.db.env(), class, smgr_id, props)?;
        Ok(QueryResult::command(0))
    }

    fn create_large_type(
        &mut self,
        type_name: &str,
        input: &str,
        output: &str,
        storage: &str,
        compression: Option<&str>,
        smgr: Option<&str>,
    ) -> Result<QueryResult> {
        let kind = LoKind::parse(storage).ok_or_else(|| {
            QueryError::Semantic(format!(
                "unknown storage \"{storage}\" (ufile, pfile, fchunk, vsegment)"
            ))
        })?;
        let codec = match compression {
            None => CodecKind::None,
            Some(name) => CodecKind::parse(name).ok_or_else(|| {
                QueryError::Semantic(format!("unknown compression \"{name}\" (none, rle, lz77)"))
            })?,
        };
        let smgr_id = match smgr {
            None => None,
            Some(name) => Some(
                self.db
                    .env()
                    .switch()
                    .by_name(name)
                    .ok_or_else(|| {
                        QueryError::Semantic(format!("unknown storage manager \"{name}\""))
                    })?
                    .0,
            ),
        };
        let def = pglo_adt::LargeTypeDef { storage: kind, codec, smgr: smgr_id };
        let (input_fn, output_fn) = self.db.conversion_pair(type_name, input, output, kind)?;
        self.db.types().create_large_type(type_name, input_fn, output_fn, def)?;
        Ok(QueryResult::command(0))
    }

    fn destroy(&mut self, class: &str) -> Result<QueryResult> {
        let heap = self.open_heap(class)?;
        // Indexes go down with the class.
        if let Some(meta) = self.db.env().catalog().get(class) {
            for def in self.class_indexes(class)? {
                Heap::open_oid(self.db.env(), def.btree_oid, meta.smgr_id()).drop_storage()?;
            }
        }
        heap.drop_storage()?;
        self.db.env().catalog().drop_class(class)?;
        Ok(QueryResult::command(0))
    }

    /// POSTQUEL's `retrieve into`: materialize a result set as a new class.
    /// Column types are inferred from the result datums (falling back to
    /// `text` for columns that are entirely NULL).
    fn materialize_into(&mut self, new_class: &str, result: QueryResult) -> Result<QueryResult> {
        let mut columns = Vec::with_capacity(result.columns.len());
        for (i, name) in result.columns.iter().enumerate() {
            let type_name = result
                .rows
                .iter()
                .map(|r| &r[i])
                .find(|d| !matches!(d, Datum::Null))
                .map(|d| d.type_name())
                .unwrap_or_else(|| "text".to_string());
            columns.push(Column { name: name.clone(), type_name });
        }
        let schema = Schema::new(columns);
        let mut props = HashMap::new();
        props.insert("schema".to_string(), schema.to_prop());
        let heap = Heap::create(self.db.env(), new_class, self.db.env().disk_id(), props)?;
        let n = result.rows.len();
        for row in &result.rows {
            // Large values stored in a class are no longer temporaries.
            for datum in row {
                if let Datum::Large(l) = datum {
                    self.db.store().keep_temp(l.id);
                }
            }
            heap.insert(self.txn, &encode_row(row))?;
        }
        Ok(QueryResult::command(n))
    }

    /// All index definitions on a class.
    fn class_indexes(&self, class: &str) -> Result<Vec<IndexDef>> {
        let meta = self
            .db
            .env()
            .catalog()
            .get(class)
            .ok_or_else(|| QueryError::Semantic(format!("class \"{class}\" does not exist")))?;
        let mut out = Vec::new();
        for (key, value) in &meta.props {
            if let Some(name) = key.strip_prefix("index:") {
                out.push(IndexDef::from_prop(name, value)?);
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn open_index(&self, class: &str, def: &IndexDef) -> Result<BTree> {
        let meta = self
            .db
            .env()
            .catalog()
            .get(class)
            .ok_or_else(|| QueryError::Semantic(format!("class \"{class}\" does not exist")))?;
        Ok(BTree::open_oid(self.db.env(), def.btree_oid, meta.smgr_id()))
    }

    /// Insert index entries for a freshly written row version.
    fn index_row(
        &mut self,
        class: &str,
        schema: &Schema,
        values: &[Datum],
        tid: Tid,
        indexes: &[IndexDef],
    ) -> Result<()> {
        for def in indexes {
            let binding = RowBinding::single(class, schema, values);
            let v = self.eval(&def.expr, Some(&binding))?;
            if let Some(key) = datum_key(&v) {
                self.open_index(class, def)?.insert(&key, tid)?;
            }
        }
        Ok(())
    }

    /// `define index NAME on CLASS (expr)` — §3's functional indexing,
    /// including over large-ADT function results.
    fn define_index(
        &mut self,
        name: &str,
        class: &str,
        expr: &Expr,
        expr_text: &str,
    ) -> Result<QueryResult> {
        let schema = self.class_schema(class)?;
        let meta = self
            .db
            .env()
            .catalog()
            .get(class)
            .ok_or_else(|| QueryError::Semantic(format!("class \"{class}\" does not exist")))?;
        let prop = index_prop_key(name);
        if meta.props.contains_key(&prop) {
            return Err(QueryError::Semantic(format!(
                "index \"{name}\" already exists on \"{class}\""
            )));
        }
        let tree =
            BTree::create_anonymous(self.db.env(), meta.smgr_id()).map_err(QueryError::Heap)?;
        let def = IndexDef {
            name: name.to_string(),
            btree_oid: tree.rel(),
            expr: expr.clone(),
            expr_text: expr_text.to_string(),
        };
        // Backfill: every existing row version gets an entry, so as-of
        // reads through the index stay correct.
        let heap = self.open_heap(class)?;
        let rows: Vec<(Tid, Vec<u8>)> =
            heap.scan(Visibility::Raw).collect::<std::result::Result<_, _>>()?;
        let mut entries = 0usize;
        for (tid, payload) in rows {
            let values = decode_row(&payload)?;
            let binding = RowBinding::single(class, &schema, &values);
            let v = self.eval(&def.expr, Some(&binding))?;
            if let Some(key) = datum_key(&v) {
                tree.insert(&key, tid)?;
                entries += 1;
            }
        }
        self.db.env().catalog().set_props(class, &[(&prop, &def.to_prop())])?;
        Ok(QueryResult::command(entries))
    }

    /// `destroy index NAME on CLASS`.
    fn destroy_index(&mut self, name: &str, class: &str) -> Result<QueryResult> {
        let defs = self.class_indexes(class)?;
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| QueryError::Semantic(format!("no index \"{name}\" on \"{class}\"")))?;
        let meta = self.db.env().catalog().get(class).expect("checked above");
        Heap::open_oid(self.db.env(), def.btree_oid, meta.smgr_id()).drop_storage()?;
        self.db.env().catalog().remove_prop(class, &index_prop_key(name))?;
        Ok(QueryResult::command(0))
    }

    fn vacuum(&mut self, class: &str) -> Result<QueryResult> {
        let heap = self.open_heap(class)?;
        let schema = self.class_schema(class)?;
        let indexes = self.class_indexes(class)?;
        let horizon = self.db.env().txns().current_timestamp();
        // A reclaimed version leaves the indexes `index_row` put it in: the
        // slot is reused, and an entry left behind would give an index
        // retrieve the slot's next row a second time. The key is recomputed
        // from the row; an expression over a large object may no longer
        // evaluate, or not to what it did when the row was indexed (the
        // object was unlinked or rewritten), and then the entry is found by
        // its TID instead.
        let reclaimed = heap.vacuum(horizon, |tid, payload| -> Result<()> {
            let values = decode_row(payload)?;
            for def in &indexes {
                let tree = self.open_index(class, def)?;
                let binding = RowBinding::single(class, &schema, &values);
                let found = match self.eval(&def.expr, Some(&binding)).map(|v| datum_key(&v)) {
                    Ok(None) => true, // a NULL is not indexed
                    Ok(Some(key)) => tree.delete(&key, tid)?,
                    Err(_) => false,
                };
                if !found {
                    let mut scan = tree.scan(pglo_btree::ScanStart::First)?;
                    while let Some((key, at)) = scan.next_entry()? {
                        if at == tid {
                            drop(scan);
                            tree.delete(&key, tid)?;
                            break;
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(QueryResult::command(reclaimed))
    }

    // ---- DML ----

    fn append(&mut self, class: &str, targets: &[Target]) -> Result<QueryResult> {
        let schema = self.class_schema(class)?;
        let heap = self.open_heap(class)?;
        let mut row = vec![Datum::Null; schema.len()];
        for target in targets {
            let name = target.name.as_ref().ok_or_else(|| {
                QueryError::Semantic("append targets must be \"column = expr\"".into())
            })?;
            let idx = schema.index_of(name).ok_or_else(|| {
                QueryError::Semantic(format!("class \"{class}\" has no column \"{name}\""))
            })?;
            let value = self.eval(&target.expr, None)?;
            row[idx] = self.coerce(value, &schema.columns[idx].type_name)?;
        }
        // Large values stored in a class are no longer temporaries.
        for datum in &row {
            if let Datum::Large(l) = datum {
                self.db.store().keep_temp(l.id);
            }
        }
        let tid = heap.insert(self.txn, &encode_row(&row))?;
        let indexes = self.class_indexes(class)?;
        self.index_row(class, &schema, &row, tid, &indexes)?;
        Ok(QueryResult::command(1))
    }

    #[allow(clippy::too_many_arguments)]
    fn retrieve(
        &mut self,
        targets: &[Target],
        from: Option<&str>,
        qual: Option<&Expr>,
        sort_by: Option<&(String, bool)>,
        unique: bool,
        as_of: Option<u64>,
    ) -> Result<QueryResult> {
        // Determine the ranged classes: the explicit `from` plus every
        // distinct qualified column reference naming a known class, in
        // order of first reference. More than one class makes the query a
        // join.
        let mut classes: Vec<String> = Vec::new();
        if let Some(c) = from {
            classes.push(c.to_string());
        }
        {
            let catalog = self.db.env().catalog();
            let mut visit = |e: &Expr| {
                if let Expr::Column { class: Some(c), .. } = e {
                    if !classes.contains(c) && catalog.get(c).is_some() {
                        classes.push(c.clone());
                    }
                }
            };
            for t in targets {
                walk(&t.expr, &mut visit);
            }
            if let Some(q) = qual {
                walk(q, &mut visit);
            }
        }
        let vis = match as_of {
            Some(ts) => Visibility::AsOf(ts),
            None => Visibility::for_txn(self.txn),
        };
        if classes.len() > 1 {
            let mut result = self.retrieve_join(&classes, targets, qual, &vis)?;
            if unique {
                let mut seen = std::collections::HashSet::new();
                result.rows.retain(|row| seen.insert(pglo_adt::datum::encode_row(row)));
            }
            if let Some((col, asc)) = sort_by {
                let idx = result.columns.iter().position(|c| c == col).ok_or_else(|| {
                    QueryError::Semantic(format!("no output column \"{col}\" to sort by"))
                })?;
                result.rows.sort_by(|a, b| {
                    let ord = datum_cmp(&a[idx], &b[idx]).unwrap_or(std::cmp::Ordering::Equal);
                    if *asc {
                        ord
                    } else {
                        ord.reverse()
                    }
                });
            }
            result.affected = result.rows.len();
            self.keep_result_temps(&result);
            return Ok(result);
        }
        let class = classes.into_iter().next();
        match class {
            None => {
                // Pure expression query: one row, no class.
                let mut columns = Vec::new();
                let mut row = Vec::new();
                for (i, t) in targets.iter().enumerate() {
                    columns.push(target_name(t, i));
                    row.push(self.eval(&t.expr, None)?);
                }
                let mut result =
                    QueryResult { columns, rows: vec![row], affected: 0, used_index: None };
                self.keep_result_temps(&result);
                result.affected = result.rows.len();
                Ok(result)
            }
            Some(class) => {
                let schema = self.class_schema(&class)?;
                let heap = self.open_heap(&class)?;
                // Expand `Class.all`.
                let expanded = expand_all(targets, &class, &schema);
                let columns: Vec<String> =
                    expanded.iter().enumerate().map(|(i, t)| target_name(t, i)).collect();
                // Aggregate mode: every target is an aggregate call.
                if let Some(aggs) = aggregate_plan(&expanded)? {
                    let mut states: Vec<AggState> =
                        aggs.iter().map(|a| AggState::new(a.kind)).collect();
                    for item in heap.scan(vis) {
                        let (_tid, payload) = item?;
                        let values = decode_row(&payload)?;
                        let binding = RowBinding::single(&class, &schema, &values);
                        if let Some(q) = qual {
                            if !self.eval_bool(q, Some(&binding))? {
                                continue;
                            }
                        }
                        for (agg, state) in aggs.iter().zip(states.iter_mut()) {
                            let v = match &agg.arg {
                                Some(e) => self.eval(e, Some(&binding))?,
                                None => Datum::Null,
                            };
                            state.accumulate(&v)?;
                        }
                    }
                    let row: Vec<Datum> = states.into_iter().map(|s| s.finish()).collect();
                    return Ok(QueryResult {
                        columns,
                        rows: vec![row],
                        affected: 1,
                        used_index: None,
                    });
                }
                // Index-assisted path: the whole qualification is an
                // equality on an indexed expression (including functional
                // indexes over large-ADT results, §3).
                let mut used_index = None;
                let mut candidates: Option<Vec<Tid>> = None;
                if let Some(q) = qual {
                    // Any AND-conjunct of the qualification can drive the
                    // index; the full qualification is re-checked per row.
                    let mut conjuncts = Vec::new();
                    collect_conjuncts(q, &mut conjuncts);
                    'plan: for def in self.class_indexes(&class)? {
                        let Some((kind, probe_expr)) =
                            conjuncts.iter().find_map(|c| probe_for(c, &def.expr))
                        else {
                            continue 'plan;
                        };
                        let probe = self.eval(&probe_expr.clone(), None)?;
                        let Some(key) = datum_key(&probe) else { continue };
                        let tree = self.open_index(&class, &def)?;
                        let tids = match kind {
                            ProbeKind::Eq => tree.lookup(&key)?,
                            ProbeKind::Lower => {
                                // Forward scan from the key to the end of
                                // its type tag; requalification exactifies.
                                let mut scan =
                                    tree.scan(pglo_btree::ScanStart::AtOrAfter(key.clone()))?;
                                let mut out = Vec::new();
                                while let Some((k, tid)) = scan.next_entry()? {
                                    if k.first() != key.first() {
                                        break; // left this type's key space
                                    }
                                    out.push(tid);
                                }
                                out
                            }
                            ProbeKind::Upper => {
                                let mut scan = tree.scan(pglo_btree::ScanStart::First)?;
                                let mut out = Vec::new();
                                while let Some((k, tid)) = scan.next_entry()? {
                                    if k.as_slice() > key.as_slice() {
                                        break;
                                    }
                                    out.push(tid);
                                }
                                out
                            }
                        };
                        candidates = Some(tids);
                        used_index = Some(def.name.clone());
                        break;
                    }
                }
                let mut rows = Vec::new();
                let mut emit = |exec: &mut Self, payload: Vec<u8>| -> Result<()> {
                    let values = decode_row(&payload)?;
                    let binding = RowBinding::single(&class, &schema, &values);
                    if let Some(q) = qual {
                        // Re-checked even on the index path: entries cover
                        // every version and key collisions are possible.
                        if !exec.eval_bool(q, Some(&binding))? {
                            return Ok(());
                        }
                    }
                    let mut out = Vec::with_capacity(expanded.len());
                    for t in &expanded {
                        out.push(exec.eval(&t.expr, Some(&binding))?);
                    }
                    rows.push(out);
                    Ok(())
                };
                match candidates {
                    Some(tids) => {
                        for tid in tids {
                            if let Some(payload) = heap.fetch(tid, &vis)? {
                                emit(self, payload)?;
                            }
                        }
                    }
                    None => {
                        for item in heap.scan(vis) {
                            let (_tid, payload) = item?;
                            emit(self, payload)?;
                        }
                    }
                }
                if unique {
                    let mut seen = std::collections::HashSet::new();
                    rows.retain(|row| seen.insert(pglo_adt::datum::encode_row(row)));
                }
                if let Some((col, asc)) = sort_by {
                    let idx = columns.iter().position(|c| c == col).ok_or_else(|| {
                        QueryError::Semantic(format!("no output column \"{col}\" to sort by"))
                    })?;
                    rows.sort_by(|a, b| {
                        let ord = datum_cmp(&a[idx], &b[idx]).unwrap_or(std::cmp::Ordering::Equal);
                        if *asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    });
                }
                let result = QueryResult { columns, affected: rows.len(), rows, used_index };
                self.keep_result_temps(&result);
                Ok(result)
            }
        }
    }

    /// Nested-loop join over two or more ranged classes: materialize each
    /// class's visible rows, iterate the cartesian product, apply the
    /// qualification, project. Quadratic and proud of it — POSTQUEL-era
    /// plans for small catalogs (the paper's metadata queries over
    /// DIRECTORY/FILESTAT are the intended workload).
    fn retrieve_join(
        &mut self,
        classes: &[String],
        targets: &[Target],
        qual: Option<&Expr>,
        vis: &Visibility,
    ) -> Result<QueryResult> {
        // Materialize every relation.
        let mut schemas: Vec<Schema> = Vec::with_capacity(classes.len());
        let mut relations: Vec<Vec<Vec<Datum>>> = Vec::with_capacity(classes.len());
        for class in classes {
            let schema = self.class_schema(class)?;
            let heap = self.open_heap(class)?;
            let mut rows = Vec::new();
            for item in heap.scan(vis.clone()) {
                let (_tid, payload) = item?;
                rows.push(decode_row(&payload)?);
            }
            schemas.push(schema);
            relations.push(rows);
        }
        // Expand `Class.all` per ranged class.
        let mut expanded: Vec<Target> = Vec::new();
        'next_target: for t in targets {
            if let Expr::Column { class: Some(c), attr } = &t.expr {
                if attr == "all" {
                    if let Some(i) = classes.iter().position(|x| x == c) {
                        for col in &schemas[i].columns {
                            expanded.push(Target {
                                name: Some(col.name.clone()),
                                expr: Expr::Column {
                                    class: Some(c.clone()),
                                    attr: col.name.clone(),
                                },
                            });
                        }
                        continue 'next_target;
                    }
                }
            }
            expanded.push(t.clone());
        }
        if aggregate_plan(&expanded)?.is_some() {
            return Err(QueryError::Semantic("aggregates over joins are not supported".into()));
        }
        let columns: Vec<String> =
            expanded.iter().enumerate().map(|(i, t)| target_name(t, i)).collect();
        // Odometer over the cartesian product.
        let mut rows = Vec::new();
        if relations.iter().all(|r| !r.is_empty()) {
            let mut cursor = vec![0usize; relations.len()];
            'product: loop {
                {
                    let binding = RowBinding {
                        entries: classes
                            .iter()
                            .zip(&schemas)
                            .zip(&relations)
                            .zip(&cursor)
                            .map(|(((class, schema), rel), &i)| BindEntry {
                                class,
                                schema,
                                values: &rel[i],
                            })
                            .collect(),
                    };
                    let keep = match qual {
                        Some(q) => self.eval_bool(q, Some(&binding))?,
                        None => true,
                    };
                    if keep {
                        let mut out = Vec::with_capacity(expanded.len());
                        for t in &expanded {
                            out.push(self.eval(&t.expr, Some(&binding))?);
                        }
                        rows.push(out);
                    }
                }
                // Advance the odometer.
                for i in (0..cursor.len()).rev() {
                    cursor[i] += 1;
                    if cursor[i] < relations[i].len() {
                        continue 'product;
                    }
                    cursor[i] = 0;
                }
                break;
            }
        }
        Ok(QueryResult { columns, affected: rows.len(), rows, used_index: None })
    }

    fn replace(
        &mut self,
        class: &str,
        targets: &[Target],
        qual: Option<&Expr>,
    ) -> Result<QueryResult> {
        let schema = self.class_schema(class)?;
        let heap = self.open_heap(class)?;
        let vis = Visibility::for_txn(self.txn);
        // Materialize matches first (Halloween protection: updates insert
        // new versions the scan must not revisit).
        let mut matches: Vec<(Tid, Vec<Datum>)> = Vec::new();
        for item in heap.scan(vis) {
            let (tid, payload) = item?;
            let values = decode_row(&payload)?;
            let binding = RowBinding::single(class, &schema, &values);
            if let Some(q) = qual {
                if !self.eval_bool(q, Some(&binding))? {
                    continue;
                }
            }
            matches.push((tid, values));
        }
        let n = matches.len();
        for (tid, mut values) in matches {
            let old = values.clone();
            for target in targets {
                let name = target.name.as_ref().ok_or_else(|| {
                    QueryError::Semantic("replace targets must be \"column = expr\"".into())
                })?;
                let idx = schema.index_of(name).ok_or_else(|| {
                    QueryError::Semantic(format!("class \"{class}\" has no column \"{name}\""))
                })?;
                let binding = RowBinding::single(class, &schema, &old);
                let value = self.eval(&target.expr, Some(&binding))?;
                values[idx] = self.coerce(value, &schema.columns[idx].type_name)?;
            }
            for datum in &values {
                if let Datum::Large(l) = datum {
                    self.db.store().keep_temp(l.id);
                }
            }
            let new_tid = heap.update(self.txn, tid, &encode_row(&values))?;
            let indexes = self.class_indexes(class)?;
            self.index_row(class, &schema, &values, new_tid, &indexes)?;
        }
        Ok(QueryResult::command(n))
    }

    fn delete(&mut self, class: &str, qual: Option<&Expr>) -> Result<QueryResult> {
        let schema = self.class_schema(class)?;
        let heap = self.open_heap(class)?;
        let vis = Visibility::for_txn(self.txn);
        let mut tids = Vec::new();
        for item in heap.scan(vis) {
            let (tid, payload) = item?;
            let values = decode_row(&payload)?;
            let binding = RowBinding::single(class, &schema, &values);
            if let Some(q) = qual {
                if !self.eval_bool(q, Some(&binding))? {
                    continue;
                }
            }
            tids.push(tid);
        }
        let n = tids.len();
        for tid in tids {
            heap.delete(self.txn, tid)?;
        }
        Ok(QueryResult::command(n))
    }

    fn keep_result_temps(&self, result: &QueryResult) {
        // Large objects returned to the user survive end-of-query GC; the
        // caller owns them now ("POSTGRES will return a large object name",
        // §4).
        for row in &result.rows {
            for datum in row {
                if let Datum::Large(l) = datum {
                    self.db.store().keep_temp(l.id);
                }
            }
        }
    }

    // ---- expressions ----

    fn eval(&mut self, expr: &Expr, row: Option<&RowBinding<'_>>) -> Result<Datum> {
        match expr {
            Expr::Int(v) => Ok(Datum::Int8(*v)),
            Expr::Float(v) => Ok(Datum::Float8(*v)),
            Expr::Str(s) => Ok(Datum::Text(s.clone())),
            Expr::Bool(b) => Ok(Datum::Bool(*b)),
            Expr::Column { class, attr } => {
                let binding = row.ok_or_else(|| {
                    QueryError::Semantic(format!(
                        "column reference \"{attr}\" outside a ranged query"
                    ))
                })?;
                binding.resolve(class.as_deref(), attr)
            }
            Expr::Call { name, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, row)?);
                }
                // Functions are strict (POSTGRES-style): a NULL argument
                // yields NULL without invoking the function — which also
                // lets functional indexes skip rows with NULL inputs.
                if !values.is_empty() && values.iter().any(|v| matches!(v, Datum::Null)) {
                    return Ok(Datum::Null);
                }
                let mut ctx = self.ctx();
                Ok(self.db.funcs().invoke(&mut ctx, name, &values)?)
            }
            Expr::Cast { expr, type_name } => {
                let v = self.eval(expr, row)?;
                self.coerce(v, type_name)
            }
            Expr::Unary { op: "-", expr } => {
                let v = self.eval(expr, row)?;
                match v {
                    Datum::Int4(x) => Ok(Datum::Int4(-x)),
                    Datum::Int8(x) => Ok(Datum::Int8(-x)),
                    Datum::Float8(x) => Ok(Datum::Float8(-x)),
                    other => {
                        Err(QueryError::Semantic(format!("cannot negate a {}", other.type_name())))
                    }
                }
            }
            Expr::Unary { op: "not", expr } => {
                let v = self.eval(expr, row)?;
                match v {
                    Datum::Bool(b) => Ok(Datum::Bool(!b)),
                    other => Err(QueryError::Semantic(format!(
                        "\"not\" needs a bool, got {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::Unary { op, .. } => {
                Err(QueryError::Semantic(format!("unknown unary operator \"{op}\"")))
            }
            Expr::Binary { op, left, right } => {
                let l = self.eval(left, row)?;
                let r = self.eval(right, row)?;
                self.eval_binary(op, l, r)
            }
        }
    }

    fn eval_bool(&mut self, expr: &Expr, row: Option<&RowBinding<'_>>) -> Result<bool> {
        match self.eval(expr, row)? {
            Datum::Bool(b) => Ok(b),
            Datum::Null => Ok(false),
            other => Err(QueryError::Semantic(format!(
                "qualification must be boolean, got {}",
                other.type_name()
            ))),
        }
    }

    fn eval_binary(&mut self, op: &str, l: Datum, r: Datum) -> Result<Datum> {
        match op {
            "and" => Ok(Datum::Bool(l.as_bool().unwrap_or(false) && r.as_bool().unwrap_or(false))),
            "or" => Ok(Datum::Bool(l.as_bool().unwrap_or(false) || r.as_bool().unwrap_or(false))),
            "=" | "!=" => {
                let eq = datum_eq(&l, &r);
                Ok(Datum::Bool(if op == "=" { eq } else { !eq }))
            }
            "<" | "<=" | ">" | ">=" => {
                let ord = datum_cmp(&l, &r).ok_or_else(|| {
                    QueryError::Semantic(format!(
                        "cannot compare {} with {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                let b = match op {
                    "<" => ord.is_lt(),
                    "<=" => ord.is_le(),
                    ">" => ord.is_gt(),
                    _ => ord.is_ge(),
                };
                Ok(Datum::Bool(b))
            }
            "+" | "-" | "*" | "/" => self.arith(op, l, r),
            // Anything else: a user-registered ADT operator (e.g. `&&`).
            symbol => {
                let mut ctx = self.ctx();
                Ok(self.db.funcs().invoke_operator(&mut ctx, symbol, l, r)?)
            }
        }
    }

    fn arith(&self, op: &str, l: Datum, r: Datum) -> Result<Datum> {
        let both_int = l.as_i64().is_some() && r.as_i64().is_some();
        if both_int {
            let (a, b) = (l.as_i64().unwrap(), r.as_i64().unwrap());
            let v = match op {
                "+" => a.checked_add(b),
                "-" => a.checked_sub(b),
                "*" => a.checked_mul(b),
                _ => {
                    if b == 0 {
                        return Err(QueryError::Semantic("division by zero".into()));
                    }
                    a.checked_div(b)
                }
            }
            .ok_or_else(|| QueryError::Semantic("integer overflow".into()))?;
            return Ok(Datum::Int8(v));
        }
        let (a, b) = (
            l.as_f64().ok_or_else(|| {
                QueryError::Semantic(format!("\"{op}\" needs numbers, got {}", l.type_name()))
            })?,
            r.as_f64().ok_or_else(|| {
                QueryError::Semantic(format!("\"{op}\" needs numbers, got {}", r.type_name()))
            })?,
        );
        let v = match op {
            "+" => a + b,
            "-" => a - b,
            "*" => a * b,
            _ => {
                if b == 0.0 {
                    return Err(QueryError::Semantic("division by zero".into()));
                }
                a / b
            }
        };
        Ok(Datum::Float8(v))
    }

    /// Coerce a value to a named type, running input conversions for text.
    fn coerce(&mut self, value: Datum, type_name: &str) -> Result<Datum> {
        // Already the right shape?
        match (&value, type_name) {
            (Datum::Null, _) => return Ok(Datum::Null),
            (Datum::Bool(_), "bool") | (Datum::Float8(_), "float8") | (Datum::Rect(_), "rect") => {
                return Ok(value)
            }
            (Datum::Int4(_), "int4") | (Datum::Int8(_), "int8") => return Ok(value),
            (Datum::Int8(v), "int4") => {
                let narrow = i32::try_from(*v)
                    .map_err(|_| QueryError::Semantic(format!("{v} out of range for int4")))?;
                return Ok(Datum::Int4(narrow));
            }
            (Datum::Int4(v), "int8") => return Ok(Datum::Int8(*v as i64)),
            (Datum::Int4(v), "float8") => return Ok(Datum::Float8(*v as f64)),
            (Datum::Int8(v), "float8") => return Ok(Datum::Float8(*v as f64)),
            (Datum::Text(_), "text") => return Ok(value),
            (Datum::Large(l), _) if l.type_name == type_name => return Ok(value),
            _ => {}
        }
        // Text runs the type's input conversion (including large ADTs).
        if let Datum::Text(text) = &value {
            let mut ctx = self.ctx();
            return Ok(self.db.types().input(&mut ctx, type_name, text)?);
        }
        Err(QueryError::Semantic(format!("cannot coerce {} to {type_name}", value.type_name())))
    }
}

fn target_name(t: &Target, i: usize) -> String {
    if let Some(n) = &t.name {
        return n.clone();
    }
    match &t.expr {
        Expr::Column { attr, .. } => attr.clone(),
        Expr::Call { name, .. } => name.clone(),
        _ => format!("column{}", i + 1),
    }
}

/// Expand `Class.all` targets into one target per schema column.
fn expand_all(targets: &[Target], class: &str, schema: &Schema) -> Vec<Target> {
    let mut out = Vec::new();
    for t in targets {
        if let Expr::Column { class: Some(c), attr } = &t.expr {
            if attr == "all" && c == class {
                for col in &schema.columns {
                    out.push(Target {
                        name: Some(col.name.clone()),
                        expr: Expr::Column {
                            class: Some(class.to_string()),
                            attr: col.name.clone(),
                        },
                    });
                }
                continue;
            }
        }
        out.push(t.clone());
    }
    out
}

/// Flatten a qualification's top-level AND tree into conjuncts.
fn collect_conjuncts<'q>(expr: &'q Expr, out: &mut Vec<&'q Expr>) {
    if let Expr::Binary { op, left, right } = expr {
        if op == "and" {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
            return;
        }
    }
    out.push(expr);
}

fn walk(expr: &Expr, visit: &mut impl FnMut(&Expr)) {
    visit(expr);
    match expr {
        Expr::Call { args, .. } => {
            for a in args {
                walk(a, visit);
            }
        }
        Expr::Cast { expr, .. } | Expr::Unary { expr, .. } => walk(expr, visit),
        Expr::Binary { left, right, .. } => {
            walk(left, visit);
            walk(right, visit);
        }
        _ => {}
    }
}

fn datum_eq(l: &Datum, r: &Datum) -> bool {
    if let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) {
        return a == b;
    }
    l == r
}

fn datum_cmp(l: &Datum, r: &Datum) -> Option<std::cmp::Ordering> {
    if let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) {
        return a.partial_cmp(&b);
    }
    match (l, r) {
        (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
        (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

/// Supported aggregate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

struct AggSpec {
    kind: AggKind,
    arg: Option<Expr>,
}

/// If every target is an aggregate call, return the plan; if none are,
/// return `None`; a mix is an error (no grouping support).
fn aggregate_plan(targets: &[Target]) -> Result<Option<Vec<AggSpec>>> {
    fn kind_of(name: &str) -> Option<AggKind> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggKind::Count),
            "sum" => Some(AggKind::Sum),
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            "avg" => Some(AggKind::Avg),
            _ => None,
        }
    }
    let mut specs = Vec::new();
    let mut agg_count = 0;
    for t in targets {
        if let Expr::Call { name, args } = &t.expr {
            if let Some(kind) = kind_of(name) {
                agg_count += 1;
                if args.len() > 1 {
                    return Err(QueryError::Semantic(format!(
                        "aggregate {name} takes at most one argument"
                    )));
                }
                if args.is_empty() && kind != AggKind::Count {
                    return Err(QueryError::Semantic(format!(
                        "aggregate {name} requires an argument"
                    )));
                }
                specs.push(AggSpec { kind, arg: args.first().cloned() });
                continue;
            }
        }
        specs.push(AggSpec { kind: AggKind::Count, arg: None }); // placeholder
    }
    if agg_count == 0 {
        return Ok(None);
    }
    if agg_count != targets.len() {
        return Err(QueryError::Semantic(
            "cannot mix aggregates and plain columns (no grouping support)".into(),
        ));
    }
    Ok(Some(specs))
}

struct AggState {
    kind: AggKind,
    count: i64,
    sum: f64,
    all_int: bool,
    best: Option<Datum>,
}

impl AggState {
    fn new(kind: AggKind) -> Self {
        Self { kind, count: 0, sum: 0.0, all_int: true, best: None }
    }

    fn accumulate(&mut self, v: &Datum) -> Result<()> {
        match self.kind {
            AggKind::Count => {
                self.count += 1;
            }
            AggKind::Sum | AggKind::Avg => {
                if matches!(v, Datum::Null) {
                    return Ok(());
                }
                let x = v.as_f64().ok_or_else(|| {
                    QueryError::Semantic(format!("cannot aggregate a {}", v.type_name()))
                })?;
                if v.as_i64().is_none() {
                    self.all_int = false;
                }
                self.sum += x;
                self.count += 1;
            }
            AggKind::Min | AggKind::Max => {
                if matches!(v, Datum::Null) {
                    return Ok(());
                }
                let replace = match &self.best {
                    None => true,
                    Some(cur) => {
                        let ord = datum_cmp(v, cur).ok_or_else(|| {
                            QueryError::Semantic(format!(
                                "cannot compare {} values in min/max",
                                v.type_name()
                            ))
                        })?;
                        if self.kind == AggKind::Min {
                            ord.is_lt()
                        } else {
                            ord.is_gt()
                        }
                    }
                };
                if replace {
                    self.best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Datum {
        match self.kind {
            AggKind::Count => Datum::Int8(self.count),
            AggKind::Sum => {
                if self.all_int {
                    Datum::Int8(self.sum as i64)
                } else {
                    Datum::Float8(self.sum)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::Float8(self.sum / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.best.unwrap_or(Datum::Null),
        }
    }
}

/// The default byte-blob conversion pair used by `create large type` when
/// the named routines are not specially known: input text is the object's
/// contents (or, for `ufile` storage, the host path, matching the paper's
/// `append EMP (picture = "/usr/joe")` idiom); output is the contents as
/// text.
pub(crate) fn blob_conversions(
    type_name: &str,
    kind: LoKind,
) -> (pglo_adt::types::InputFn, pglo_adt::types::OutputFn) {
    let tname = type_name.to_string();
    let input: pglo_adt::types::InputFn = std::sync::Arc::new(move |ctx, text| {
        let lo = match kind {
            LoKind::UFile => {
                let spec = LoSpec::ufile(text);
                let id = ctx.store().create(ctx.txn(), &spec).map_err(pglo_adt::AdtError::Lo)?;
                pglo_adt::LoRef { id, type_name: tname.clone() }
            }
            _ => {
                let lo = ctx.create_temp_large(&tname)?;
                let mut h = ctx
                    .store()
                    .open(ctx.txn(), lo.id, pglo_core::OpenMode::ReadWrite)
                    .map_err(pglo_adt::AdtError::Lo)?;
                h.write(text.as_bytes()).map_err(pglo_adt::AdtError::Lo)?;
                h.close().map_err(pglo_adt::AdtError::Lo)?;
                lo
            }
        };
        Ok(Datum::Large(lo))
    });
    let output: pglo_adt::types::OutputFn = std::sync::Arc::new(move |ctx, datum| {
        let lo = datum.as_large().ok_or_else(|| pglo_adt::AdtError::TypeMismatch {
            expected: "a large object".into(),
            got: datum.type_name(),
        })?;
        let mut h = ctx
            .store()
            .open(ctx.txn(), lo.id, pglo_core::OpenMode::ReadOnly)
            .map_err(pglo_adt::AdtError::Lo)?;
        let bytes = h.read_to_vec().map_err(pglo_adt::AdtError::Lo)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    });
    (input, output)
}
